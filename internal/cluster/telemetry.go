package cluster

import (
	"math"
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
// resilience.retry events of the same edge: retry storms publish at
// most one event per edge per virtual second, carrying the accumulated
// count. An edge's first window opens at its first retry.
const retryWindowLen = sim.Time(time.Second)

// noteRetry records one retry over es for the counters and, throttled,
// for the event log.
func (c *Cluster) noteRetry(es *edgeState) {
	c.retries++
	if c.tel == nil {
		return
	}
	now := c.k.Now()
	if !es.retried {
		es.retried = true
		es.retryWinFrom = now
	}
	es.retryCount++
	if now-es.retryWinFrom >= retryWindowLen {
		c.publishRetries(now, es)
		es.retryWinFrom = now
	}
}

// publishRetries emits es's accumulated retry count and resets it.
func (c *Cluster) publishRetries(now sim.Time, es *edgeState) {
	c.tel.Publish(now, "resilience.retry",
		telemetry.String("caller", es.key.caller),
		telemetry.String("callee", es.key.callee),
		telemetry.Int("count", es.retryCount))
	es.retryCount = 0
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
	for _, es := range c.edgeOrder {
		if es.retryCount > 0 {
			c.publishRetries(now, es)
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
	for _, svc := range c.svcs {
		var st Stats
		for _, in := range svc.instances {
			s := in.Stats()
			st.Admitted += s.Admitted
			st.Completed += s.Completed
		}
		label := `{service="` + svc.name + `"}`
		tel.AddCounter("sora_service_admitted_total"+label, float64(st.Admitted))
		tel.AddCounter("sora_service_completed_total"+label, float64(st.Completed))
		tel.SetGauge("sora_service_replicas"+label, float64(svc.Replicas()))
		tel.SetGauge("sora_service_cores"+label, svc.Cores())
	}
	traces := c.warehouse.Window(math.MinInt64, math.MaxInt64)
	stride := 1
	if n := traces.Len(); n > chromeTraceSampleCap {
		stride = (n + chromeTraceSampleCap - 1) / chromeTraceSampleCap
	}
	var buf []trace.Record
	for i := 0; i < traces.Len(); i += stride {
		tr := traces.At(i)
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
