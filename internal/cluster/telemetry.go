package cluster

import (
	"time"

	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/trace"
)

// This file is the cluster's publishing surface onto the telemetry bus:
// throttled retry events (noteRetry), and the end-of-run flush
// that turns cluster/service/warehouse state into counters, gauges and
// a sampled span timeline. Reconfiguration events are published inline
// from reconfig.go.

// Telemetry returns the recorder this cluster publishes to, or nil when
// telemetry is disabled. Controllers and autoscalers use it so the
// whole control plane of one simulated deployment shares a single event
// stream.
func (c *Cluster) Telemetry() *telemetry.Recorder { return c.tel }

// retryWindowLen is the minimum virtual-time spacing between two
// resilience.retry events of the same edge.
const retryWindowLen = sim.Time(time.Second)

// retryWindow throttles resilience.retry events of one edge: retry
// storms publish at most one event per edge per virtual second,
// carrying the accumulated count.
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
	if now-win.winStart >= retryWindowLen {
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
// retry windows, request/warehouse/per-service counters and gauges, and
// an even-stride sample of retained span trees for the timeline export.
// Call it once after the simulation has drained; it is a no-op when
// telemetry is disabled.
func (c *Cluster) FlushTelemetry() {
	tel := c.tel
	if tel == nil {
		return
	}
	now := c.k.Now()
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
		}
		label := `{service="` + name + `"}`
		tel.AddCounter("sora_service_admitted_total"+label, float64(st.Admitted))
		tel.AddCounter("sora_service_completed_total"+label, float64(st.Completed))
		tel.SetGauge("sora_service_replicas"+label, float64(svc.Replicas()))
		tel.SetGauge("sora_service_cores"+label, svc.Cores())
	}
	traces := c.warehouse.All()
	stride := 1
	if len(traces) > chromeTraceSampleCap {
		stride = (len(traces) + chromeTraceSampleCap - 1) / chromeTraceSampleCap
	}
	var buf []trace.Record
	for i := 0; i < len(traces); i += stride {
		tr := traces[i]
		recs := tr.Records(&buf)
		trace.Depths(recs, func(j, depth int) {
			r := &recs[j]
			tel.AddSpan(telemetry.SpanSample{
				Trace:    uint64(tr.ID),
				Type:     tr.Type,
				Service:  tr.Names.Service(r.Service),
				Instance: tr.Names.Instance(r.Instance),
				Depth:    depth,
				Start:    r.Start,
				End:      r.End,
			})
		})
	}
}
