package main

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"sora/internal/bench"
	"sora/internal/sim"
)

// runStats is everything one workload run produces: host cost, exact
// simulator counts and the simulated outputs.
type runStats struct {
	hostSec      float64
	refNs        float64 // yardstick host ns per reference event around the run
	issued       uint64
	resolved     uint64
	allocBytes   uint64
	allocObjects uint64
	peakHeap     uint64

	events         uint64
	pendingMax     int
	warehouseMax   int
	nodePendingMax int
	spans          uint64 // traced runs only

	inFlight    int
	completed   uint64
	failed      uint64
	retries     uint64
	timedOut    uint64
	refused     uint64
	rejected    uint64
	decisions   int
	modelErrors int

	p99          time.Duration
	good         int
	resolvedWarm uint64
	digest       uint64
}

// heapProbe reads the runtime's live-heap and cumulative allocation
// counters. The sample slice is allocated once, so a read inside the
// timed run allocates nothing.
type heapProbe struct {
	samples []rtmetrics.Sample
}

func newHeapProbe() *heapProbe {
	return &heapProbe{samples: []rtmetrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

func (h *heapProbe) read() (live, allocBytes, allocObjects uint64) {
	rtmetrics.Read(h.samples)
	return h.samples[0].Value.Uint64(), h.samples[1].Value.Uint64(), h.samples[2].Value.Uint64()
}

// liveHeap forces a full collection and returns the live heap it found
// and the host time it took. A forced collection at a fixed virtual time
// measures exactly what the simulation holds there; the runtime's own
// collections land wherever allocation pacing puts them, so their
// readings jitter with the GC phase.
func (h *heapProbe) liveHeap() (uint64, time.Duration) {
	start := time.Now() //soravet:allow wallclock the forced collection is excluded from the run's host time
	runtime.GC()
	took := time.Since(start) //soravet:allow wallclock the forced collection is excluded from the run's host time
	live, _, _ := h.read()
	return live, took
}

// tracer instruments the traced runs: a span per run and per
// virtual-second slice, and the layer profiler around each run's
// measured interval. A nil *tracer is the timed run.
type tracer struct {
	spans *spanLog
	root  int // span the runs nest under
	run   int // span of the current run
	prof  *layerProfiler
}

// execute runs the rig for dur of virtual time and drains it, stepping
// the kernel one virtual second at a time so queue depths can be sampled
// between slices; slicing does not change the simulation (RunUntil fires
// exactly the events a single call would). Timed runs (tr == nil)
// measure the live heap by forced collections at the virtual midpoint
// and end, whose host time is not counted. Traced runs profile exactly
// the interval the timed run times, and count spans.
func (r *rig) execute(dur, warm time.Duration, tr *tracer) runStats {
	r.warm, r.end = sim.Time(warm), sim.Time(dur)
	mid := r.end / 2
	var st runStats
	var spans *spanLog
	parent := 0
	if tr != nil {
		spans, parent = tr.spans, tr.run
		r.countSpans()
		tr.prof.start()
	}
	var paused time.Duration
	hp := newHeapProbe()
	_, bytes0, objs0 := hp.read()
	start := time.Now() //soravet:allow wallclock host time of the measured run is the benchmark's output
	if r.eng != nil {
		r.eng.Start()
	}
	r.mon.Start()
	r.loop.Start()
	if r.ctl != nil {
		r.ctl.Start()
	}
	fleet := r.c.ControlPlane()
	for t := sim.Time(0); t < r.end; {
		next := min(t+sim.Time(time.Second), r.end)
		if t < mid && next > mid {
			next = mid
		}
		id := spans.begin("run_until", parent)
		r.k.RunUntil(next)
		spans.end(id)
		t = next
		st.pendingMax = max(st.pendingMax, r.k.Pending())
		st.warehouseMax = max(st.warehouseMax, r.c.Warehouse().Len())
		if fleet != nil {
			st.nodePendingMax = max(st.nodePendingMax, fleet.Fleet().PendingPods())
		}
		if tr == nil && (t == mid || t == r.end) {
			live, took := hp.liveHeap()
			st.peakHeap = max(st.peakHeap, live)
			paused += took
		}
	}
	if r.ctl != nil {
		r.ctl.Stop()
	}
	r.loop.Stop()
	r.mon.Stop()
	id := spans.begin("drain", parent)
	r.k.Run()
	spans.end(id)
	st.hostSec = (time.Since(start) - paused).Seconds() //soravet:allow wallclock host time of the measured run is the benchmark's output
	_, bytes1, objs1 := hp.read()
	st.allocBytes, st.allocObjects = bytes1-bytes0, objs1-objs0
	if tr != nil {
		tr.prof.stop()
	}

	st.issued, st.resolved, st.resolvedWarm, st.spans = r.loop.Issued(), r.resolved, r.resolvedWarm, r.spans
	st.events = r.k.Processed()
	st.inFlight = r.c.InFlight()
	st.completed, st.failed = r.c.Completed(), r.c.Failed()
	st.retries, st.timedOut = r.c.Retries(), r.c.TimedOut()
	st.refused, st.rejected = r.c.Refused(), r.c.BreakerRejections()
	var events []string
	if r.ctl != nil {
		for _, e := range r.ctl.Events() {
			events = append(events, e.String())
		}
		st.decisions = len(events)
		st.modelErrors, _ = r.ctl.ModelErrors()
	}
	if p99, err := r.e2e.Percentile(99, r.warm, r.end); err == nil {
		st.p99 = p99
	}
	st.good, _, _ = r.e2e.CountsByOutcome(r.warm, r.end, goodputSLA)
	st.digest = digest(st, events)
	return st
}

// yardEvents is the size of one yardstick sample: about 0.1 s of host
// time, long enough to average out scheduler noise.
const yardEvents = 500_000

// yardstick measures the machine's current speed on frozen code: the
// pre-rewrite container/heap kernel (bench.RefKernel) churning a
// standing population of 256 self-rescheduling events (the workload of
// BenchmarkEventLoopContainerHeap) for the given number of events. It
// returns host ns per event. Sampled between runs, it lets req_per_kref
// and setup_s divide out the machine speed drift that raw host times
// carry.
func yardstick(events int) float64 {
	k := bench.NewRefKernel()
	remaining := events
	var fire func()
	fire = func() {
		if remaining > 0 {
			remaining--
			k.Schedule(time.Duration(remaining%97+1)*time.Microsecond, fire)
		}
	}
	for i := 0; i < 256; i++ {
		k.Schedule(time.Duration(i%97+1)*time.Microsecond, fire)
	}
	start := time.Now() //soravet:allow wallclock the yardstick measures host time
	k.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(events) //soravet:allow wallclock the yardstick measures host time
}

// digest fingerprints a run's simulated outcome: kernel events, the
// resolution counts, p99 in ns, the good count and the controller's
// adaptation events. Any two runs of one workload and seed must agree.
func digest(st runStats, adaptations []string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{st.events, st.resolved, st.completed, st.failed, uint64(st.p99), uint64(st.good)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range adaptations {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// check returns why a run failed its correctness checks, or "" when it
// passed. want is the digest every run of this workload and seed must
// reproduce (0 for the first run).
func (st runStats) check(want uint64) string {
	switch {
	case st.issued != st.resolved:
		return "issued != resolved"
	case st.inFlight != 0:
		return "requests in flight after the drain"
	case st.completed+st.failed > st.resolved:
		return "completed + failed > resolved"
	case st.resolved == 0 || st.resolvedWarm == 0:
		return "no request resolved"
	case want != 0 && st.digest != want:
		return "sim digest differs from an earlier run of the same workload and seed"
	}
	return ""
}
