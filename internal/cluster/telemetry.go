package cluster

import (
	"time"

	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/trace"
)

// This file is the cluster's publishing surface onto the telemetry bus:
// throttled admission-drop events (noteDrop), and the end-of-run flush
// that turns cluster/service/warehouse state into counters, gauges and
// a sampled span timeline. Reconfiguration events are published inline
// from reconfig.go.

// Telemetry returns the recorder this cluster publishes to, or nil when
// telemetry is disabled. Controllers and autoscalers use it so the
// whole control plane of one simulated deployment shares a single event
// stream.
func (c *Cluster) Telemetry() *telemetry.Recorder { return c.tel }

// dropWindow accumulates admission drops of one service so that
// overload (thousands of drops per second) does not flood the event
// log: at most one cluster.drop event is published per service per
// virtual second, carrying the accumulated count. FlushTelemetry emits
// a closing summary per service carrying the residual count and the
// exact lifetime total, so a run that ends mid-window never swallows
// its final drops.
type dropWindow struct {
	winStart sim.Time
	count    int
	total    int // lifetime drops of this service, for the closing summary
}

// dropWindowLen is the minimum virtual-time spacing between two
// cluster.drop events of the same service.
const dropWindowLen = sim.Time(time.Second)

// noteDrop records one admission-queue rejection for telemetry. Called
// from the request path, so it must stay cheap when disabled.
func (c *Cluster) noteDrop(service string) {
	if c.tel == nil {
		return
	}
	now := c.k.Now()
	win, ok := c.dropWins[service]
	if !ok {
		win = &dropWindow{winStart: now} //soravet:allow hotpath one window per service for the run's lifetime, allocated on that service's first drop only
		c.dropWins[service] = win
	}
	win.count++
	win.total++
	if now-win.winStart >= dropWindowLen {
		//soravet:allow hotpath drop events are rate-limited to one per service per dropWindowLen of virtual time, so the variadic slice is off the steady-state path
		c.tel.Publish(now, "cluster.drop",
			telemetry.String("service", service),
			telemetry.Int("count", win.count))
		win.winStart = now
		win.count = 0
	}
}

// retryWindow throttles resilience.retry events of one edge the same
// way dropWindow throttles admission drops: retry storms publish at
// most one event per edge per virtual second.
type retryWindow struct {
	winStart sim.Time
	count    int
}

// noteRetry records one retry for the counters and, throttled, for the
// event log.
func (c *Cluster) noteRetry(key edgeKey) {
	c.retries++
	if c.tel == nil {
		return
	}
	now := c.k.Now()
	win, ok := c.retryWins[key]
	if !ok {
		win = &retryWindow{winStart: now}
		c.retryWins[key] = win
	}
	win.count++
	if now-win.winStart >= dropWindowLen {
		c.tel.Publish(now, "resilience.retry",
			telemetry.String("caller", key.caller),
			telemetry.String("callee", key.callee),
			telemetry.Int("count", win.count))
		win.winStart = now
		win.count = 0
	}
}

// noteBreakerTransition publishes one circuit-breaker state change.
// Transitions are rare (bounded by fault windows), so they are not
// throttled.
func (c *Cluster) noteBreakerTransition(key edgeKey, from, to breakerState) {
	if c.tel == nil {
		return
	}
	c.tel.Publish(c.k.Now(), "resilience.breaker",
		telemetry.String("caller", key.caller),
		telemetry.String("callee", key.callee),
		telemetry.String("from", from.String()),
		telemetry.String("to", to.String()))
}

// chromeTraceSampleCap bounds how many warehouse traces FlushTelemetry
// renders into the Chrome trace export per cluster (even-stride
// sampled), keeping artifacts loadable for long runs.
const chromeTraceSampleCap = 200

// FlushTelemetry publishes the cluster's end-of-run state: residual
// drop windows, request/warehouse/per-service counters and gauges, and
// an even-stride sample of retained span trees for the timeline export.
// Call it once after the simulation has drained; it is a no-op when
// telemetry is disabled.
func (c *Cluster) FlushTelemetry() {
	tel := c.tel
	if tel == nil {
		return
	}
	now := c.k.Now()
	for _, name := range c.order {
		if win, ok := c.dropWins[name]; ok && win.total > 0 {
			// Closing summary: the residual (possibly zero) count of the
			// open throttle window plus the exact lifetime total, so
			// consumers can reconcile drops even when the run ended
			// mid-window.
			tel.Publish(now, "cluster.drop",
				telemetry.String("service", name),
				telemetry.Int("count", win.count),
				telemetry.Int("total", win.total))
			win.count = 0
		}
	}
	for _, key := range c.edgeOrder {
		if win, ok := c.retryWins[key]; ok && win.count > 0 {
			tel.Publish(now, "resilience.retry",
				telemetry.String("caller", key.caller),
				telemetry.String("callee", key.callee),
				telemetry.Int("count", win.count))
			win.count = 0
		}
	}
	tel.AddCounter("sora_requests_completed_total", float64(c.completed))
	tel.AddCounter("sora_requests_dropped_total", float64(c.dropped))
	if c.failed > 0 {
		tel.AddCounter("sora_requests_failed_total", float64(c.failed))
	}
	if c.degraded > 0 {
		tel.AddCounter("sora_requests_degraded_total", float64(c.degraded))
	}
	if c.refused > 0 {
		tel.AddCounter("sora_calls_refused_total", float64(c.refused))
	}
	if c.lostCalls > 0 {
		tel.AddCounter("sora_calls_lost_total", float64(c.lostCalls))
	}
	if c.timedOut > 0 {
		tel.AddCounter("sora_calls_timedout_total", float64(c.timedOut))
	}
	if c.retries > 0 {
		tel.AddCounter("sora_retries_total", float64(c.retries))
	}
	if c.rejected > 0 {
		tel.AddCounter("sora_breaker_rejected_total", float64(c.rejected))
	}
	ws := c.warehouse.Stats()
	tel.AddCounter("sora_warehouse_added_total", float64(ws.Added))
	tel.AddCounter("sora_warehouse_evicted_total", float64(ws.Evicted))
	tel.SetGauge("sora_warehouse_retained", float64(ws.Retained))
	tel.SetGauge("sora_inflight", float64(c.inFlight))
	for _, name := range c.order {
		svc := c.services[name]
		var st Stats
		for _, in := range svc.instances {
			s := in.Stats()
			st.Admitted += s.Admitted
			st.Completed += s.Completed
			st.Dropped += s.Dropped
		}
		label := `{service="` + name + `"}`
		tel.AddCounter("sora_service_admitted_total"+label, float64(st.Admitted))
		tel.AddCounter("sora_service_completed_total"+label, float64(st.Completed))
		tel.AddCounter("sora_service_dropped_total"+label, float64(st.Dropped))
		tel.SetGauge("sora_service_replicas"+label, float64(svc.Replicas()))
		tel.SetGauge("sora_service_cores"+label, svc.Cores())
	}
	traces := c.warehouse.All()
	stride := 1
	if len(traces) > chromeTraceSampleCap {
		stride = (len(traces) + chromeTraceSampleCap - 1) / chromeTraceSampleCap
	}
	for i := 0; i < len(traces); i += stride {
		tr := traces[i]
		tr.Root.Walk(func(s *trace.Span) {
			tel.AddSpan(telemetry.SpanSample{
				Trace:    uint64(tr.ID),
				Type:     tr.Type,
				Service:  s.Service,
				Instance: s.Instance,
				Depth:    int(s.Depth),
				Start:    s.Start,
				End:      s.End,
			})
		})
	}
}
