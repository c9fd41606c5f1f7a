package cluster

import (
	"fmt"
	"sort"
	"time"

	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/telemetry"
)

// This file implements the flight recorder: a windowed time-series layer
// that continuously samples every interesting cluster signal on the
// virtual clock and publishes it as `timeline.window` (one per service
// per window) and `timeline.cluster` (one per window) events on the
// cluster's telemetry recorder. Controller decisions, reconfigs and
// fault injections already land on the same recorder, so one JSONL
// export (telemetry.Recorder.WriteTimeline) aligns "what the system did"
// with "what happened next" on a single virtual-time axis.
//
// The request-path hooks are deliberately branch-plus-increment cheap:
// per-arrival and per-completion bookkeeping writes plain
// uint64 fields and one stats.Sketch bucket — zero steady-state
// allocations (TestFlightRecorderAllocFree pins this, mirroring the PR 6
// visit-pool pin). All allocation happens once per window inside the
// flush tick, off the request path.

// FlightRecorder samples one cluster into control-interval-aligned
// windows. Create it with Cluster.ArmFlightRecorder; it starts sampling
// immediately and must be stopped (final partial-window flush) before
// the post-run drain so the window ticker does not keep Kernel.Run
// alive.
type FlightRecorder struct {
	c      *Cluster
	sla    time.Duration
	ticker *sim.Ticker

	winStart sim.Time
	tracks   []*flightTrack

	// e2e sketches end-to-end response times (ms) of requests completing
	// in the current window; good/degraded/violated is the same window's
	// outcome split against the SLA.
	e2e       *stats.Sketch
	good      uint64
	degradedN uint64
	violated  uint64

	// merged is the flush-time scratch sketch the per-service span
	// sketches merge into (allocated once, reset per window).
	merged *stats.Sketch

	// prev snapshots the cluster lifetime counters at the previous window
	// boundary, so each timeline.cluster row carries per-window deltas.
	prev flightCounters

	stopped bool
}

// flightCounters snapshots the cluster's lifetime counters.
type flightCounters struct {
	completed, failed, refused        uint64
	retries, rejected, timedOut, lost uint64
}

func (c *Cluster) flightCounters() flightCounters {
	return flightCounters{
		completed: c.completed,
		failed:    c.failed,
		refused:   c.refused,
		retries:   c.retries,
		rejected:  c.rejected,
		timedOut:  c.timedOut,
		lost:      c.lostCalls,
	}
}

// flightTrack is the per-service window state. Service.flight points at
// its track so the request-path hooks are one nil check and field
// increments away from the hot path.
type flightTrack struct {
	svc    *Service
	ref    ResourceRef // primary soft resource reported per window
	hasRef bool

	sketch      *stats.Sketch // span durations (ms) completing this window
	arrivals    uint64
	completions uint64

	// prevBusy/prevCap are cumulative core-seconds at the previous window
	// boundary; their deltas give the window's behind-pool utilization.
	prevBusy, prevCap float64
}

// primaryRef selects the soft resource a service's timeline row reports:
// the thread pool if bounded, else the DB connection pool, else the
// lexicographically smallest client-connection pool (deterministic
// regardless of map order), else nothing.
func primaryRef(spec ServiceSpec) (ResourceRef, bool) {
	if spec.ThreadPool > 0 {
		return ResourceRef{Service: spec.Name, Kind: PoolThreads}, true
	}
	if spec.DBPool > 0 {
		return ResourceRef{Service: spec.Name, Kind: PoolDBConns}, true
	}
	if len(spec.ClientPools) > 0 {
		targets := make([]string, 0, len(spec.ClientPools))
		for target := range spec.ClientPools {
			targets = append(targets, target)
		}
		sort.Strings(targets)
		return ResourceRef{Service: spec.Name, Kind: PoolClientConns, Target: targets[0]}, true
	}
	return ResourceRef{}, false
}

// ArmFlightRecorder attaches a flight recorder sampling every window
// against the given goodput SLA. It requires telemetry (the timeline is
// published as events) and may be armed at most once per cluster. The
// window should match the control interval so controller decisions align
// with window boundaries, but any positive duration works.
func (c *Cluster) ArmFlightRecorder(window, sla time.Duration) (*FlightRecorder, error) {
	if c.tel == nil {
		return nil, fmt.Errorf("cluster: flight recorder needs telemetry (Options.Telemetry)")
	}
	if window <= 0 {
		return nil, fmt.Errorf("cluster: flight recorder window must be positive, got %v", window)
	}
	if c.flight != nil {
		return nil, fmt.Errorf("cluster: flight recorder already armed")
	}
	f := &FlightRecorder{
		c:        c,
		sla:      sla,
		winStart: c.k.Now(),
		e2e:      stats.NewSketch(0),
		merged:   stats.NewSketch(0),
		prev:     c.flightCounters(),
	}
	for _, name := range c.order {
		svc := c.services[name]
		t := &flightTrack{
			svc:      svc,
			sketch:   stats.NewSketch(0),
			prevBusy: svc.CumulativeBusy(),
			prevCap:  svc.CumulativeCapacity(),
		}
		t.ref, t.hasRef = primaryRef(svc.spec)
		svc.flight = t
		f.tracks = append(f.tracks, t)
	}
	c.flight = f
	f.ticker = c.k.Every(window, f.tick)
	return f, nil
}

// noteE2E classifies one end-to-end completion into the current window.
// Called from the submit completion path: field increments and one
// sketch bucket, no allocation.
func (f *FlightRecorder) noteE2E(rt time.Duration, degraded bool) {
	f.e2e.Observe(float64(rt) / float64(time.Millisecond))
	switch {
	case degraded:
		f.degradedN++
	case rt <= f.sla:
		f.good++
	default:
		f.violated++
	}
}

// tick is the window ticker callback.
func (f *FlightRecorder) tick() { f.flush(f.c.k.Now()) }

// Stop halts sampling and flushes the final (possibly partial) window.
// Call it at the nominal end of the run, before the drain; it is
// idempotent.
func (f *FlightRecorder) Stop() {
	if f == nil || f.stopped {
		return
	}
	f.stopped = true
	f.ticker.Stop()
	if f.c.k.Now() > f.winStart {
		f.flush(f.c.k.Now())
	}
}

// flush publishes the closing window [winStart, now) and resets the
// window state. One timeline.window event per service (declaration
// order) then one timeline.cluster row, all stamped at the window end.
func (f *FlightRecorder) flush(now sim.Time) {
	c := f.c
	tel := c.tel
	winLen := (now - f.winStart).Seconds()
	if winLen <= 0 {
		return
	}
	f.merged.Reset()
	for _, t := range f.tracks {
		// Merge before reset: the cluster row reports the all-services
		// span latency tail alongside the e2e quantiles.
		if err := f.merged.Merge(t.sketch); err != nil {
			// Unreachable: every sketch is built with the same alpha.
			panic(err)
		}
		svc := t.svc
		busy, capacity := svc.CumulativeBusy(), svc.CumulativeCapacity()
		util := 0.0
		if dc := capacity - t.prevCap; dc > 0 {
			util = (busy - t.prevBusy) / dc
		}
		poolName := ""
		poolSize, poolUsed := 0, 0
		if t.hasRef {
			poolName = t.ref.String()
			poolSize, _ = c.PoolSize(t.ref)
			poolUsed, _ = c.PoolInUse(t.ref)
		}
		attrs := []telemetry.Attr{
			telemetry.String("service", svc.name),
			telemetry.Float("p50_ms", t.sketch.QuantileOr(50, 0)),
			telemetry.Float("p95_ms", t.sketch.QuantileOr(95, 0)),
			telemetry.Float("p99_ms", t.sketch.QuantileOr(99, 0)),
			telemetry.Int64("arrivals", int64(t.arrivals)),
			telemetry.Int64("completions", int64(t.completions)),
			telemetry.Int("queue", svc.QueueLength()),
			telemetry.Int("conc", svc.Concurrency()),
			telemetry.Int("replicas", svc.Replicas()),
			telemetry.String("pool", poolName),
			telemetry.Int("pool_size", poolSize),
			telemetry.Int("pool_used", poolUsed),
			telemetry.Float("util", util),
		}
		if c.cp != nil {
			// Control-plane runs carry the pod→node assignment so
			// soradiff can report the first window where placement
			// diverges between two runs. Absent without a control plane,
			// keeping legacy timelines byte-identical.
			attrs = append(attrs, telemetry.String("placement", c.cp.placement(svc)))
		}
		tel.Publish(now, "timeline.window", attrs...)
		t.sketch.Reset()
		t.arrivals, t.completions = 0, 0
		t.prevBusy, t.prevCap = busy, capacity
	}
	cur := c.flightCounters()
	open := 0
	for _, es := range c.edgeOrder {
		if es.state == breakerOpen {
			open++
		}
	}
	tel.Publish(now, "timeline.cluster",
		telemetry.Float("win_s", winLen),
		telemetry.Float("p50_ms", f.e2e.QuantileOr(50, 0)),
		telemetry.Float("p95_ms", f.e2e.QuantileOr(95, 0)),
		telemetry.Float("p99_ms", f.e2e.QuantileOr(99, 0)),
		telemetry.Float("span_p99_ms", f.merged.QuantileOr(99, 0)),
		telemetry.Int64("good", int64(f.good)),
		telemetry.Int64("degraded", int64(f.degradedN)),
		telemetry.Int64("violated", int64(f.violated)),
		telemetry.Int64("completed", int64(cur.completed-f.prev.completed)),
		telemetry.Int64("failed", int64(cur.failed-f.prev.failed)),
		telemetry.Int64("refused", int64(cur.refused-f.prev.refused)),
		telemetry.Int64("retries", int64(cur.retries-f.prev.retries)),
		telemetry.Int64("rejected", int64(cur.rejected-f.prev.rejected)),
		telemetry.Int64("timedout", int64(cur.timedOut-f.prev.timedOut)),
		telemetry.Int64("lost", int64(cur.lost-f.prev.lost)),
		telemetry.Int("inflight", c.inFlight),
		telemetry.Int("breakers_open", open),
	)
	f.e2e.Reset()
	f.good, f.degradedN, f.violated = 0, 0, 0
	f.prev = cur
	f.winStart = now
}
