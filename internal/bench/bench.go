package bench

import (
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/psq"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/telemetry"
	"sora/internal/topology"
)

// Result is one benchmark's outcome as the regression sentinel gates
// it: allocations per op, and EventsPerSec, simulation events executed
// per wall-clock second (one event per op for the pure event-loop
// benchmarks, the kernel's measured events-per-request for the
// end-to-end runs).
type Result struct {
	Name         string
	AllocsPerOp  int64
	EventsPerSec float64
}

// result converts a testing.BenchmarkResult, deriving events/s from the
// per-op wall cost and the events/op metric reported by the benchmark
// body (defaulting to one event per op).
func result(name string, r testing.BenchmarkResult) Result {
	res := Result{Name: name, AllocsPerOp: r.AllocsPerOp()}
	if r.N > 0 && r.T > 0 {
		perOp := 1.0
		if v, ok := r.Extra["events/op"]; ok {
			perOp = v
		}
		res.EventsPerSec = perOp * 1e9 * float64(r.N) / float64(r.T.Nanoseconds())
	}
	return res
}

// Run executes the regression sentinel's suite — exactly the
// benchmarks BASELINE.json gates as bench/<name>/… — and returns the
// results in fixed order. Each benchmark is timed by testing.Benchmark,
// so -test.benchtime (set via testing.Init + flag.Set by callers that
// want a quick run) controls the measurement window.
func Run() []Result {
	return []Result{
		result("kernel/eventloop", testing.Benchmark(BenchmarkEventLoop)),
		result("kernel/eventloop/containerheap", testing.Benchmark(BenchmarkEventLoopContainerHeap)),
		result("kernel/reset", testing.Benchmark(BenchmarkTimerReset)),
		result("kernel/cancel", testing.Benchmark(BenchmarkScheduleCancel)),
		result("psq/submit", testing.Benchmark(BenchmarkPSQSubmit)),
		result("cluster/socialnetwork", testing.Benchmark(BenchmarkSocialNetworkRequest)),
		result("stats/sketch/observe", testing.Benchmark(BenchmarkSketchObserve)),
		result("cluster/request/flight", testing.Benchmark(BenchmarkRequestWithFlightRecorder)),
	}
}

// eventLoopPending is the standing event-queue population of the
// event-loop benchmarks: large enough that sifts traverse several heap
// levels, small enough to stay cache-resident — the regime experiment
// runs live in.
const eventLoopPending = 256

// loopDelays is the deterministic delay pattern of the churn benchmarks:
// a mix of near-term and far-term events so pushes land at different
// heap depths. Indexed with i&15.
var loopDelays = [16]time.Duration{
	17 * time.Microsecond, 1903 * time.Microsecond, 450 * time.Nanosecond,
	83 * time.Millisecond, 5 * time.Microsecond, 12 * time.Millisecond,
	731 * time.Microsecond, 90 * time.Nanosecond, 3 * time.Millisecond,
	211 * time.Microsecond, 47 * time.Millisecond, 900 * time.Nanosecond,
	66 * time.Microsecond, 7 * time.Millisecond, 1 * time.Microsecond,
	329 * time.Microsecond,
}

// BenchmarkEventLoop measures the kernel's core schedule→pop→dispatch
// cycle: a self-perpetuating population of eventLoopPending timers where
// every fired event schedules its successor. One op = one event.
func BenchmarkEventLoop(b *testing.B) {
	k := sim.NewKernel(1)
	remaining := b.N
	i := 0
	var fire func()
	fire = func() {
		if remaining == 0 {
			return
		}
		remaining--
		k.Schedule(loopDelays[i&15], fire)
		i++
	}
	for j := 0; j < eventLoopPending; j++ {
		k.Schedule(loopDelays[j&15], fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkEventLoopContainerHeap runs the identical workload on the
// frozen container/heap kernel: the same-machine reference that turns
// BenchmarkEventLoop's figure into a host-independent ratio.
func BenchmarkEventLoopContainerHeap(b *testing.B) {
	k := NewRefKernel()
	remaining := b.N
	i := 0
	var fire func()
	fire = func() {
		if remaining == 0 {
			return
		}
		remaining--
		k.Schedule(loopDelays[i&15], fire)
		i++
	}
	for j := 0; j < eventLoopPending; j++ {
		k.Schedule(loopDelays[j&15], fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkTimerReset measures re-keying one pending timer in place
// against a standing population — the psq.Server reschedule pattern.
func BenchmarkTimerReset(b *testing.B) {
	k := sim.NewKernel(1)
	nop := func() {}
	for j := 0; j < eventLoopPending-1; j++ {
		k.Schedule(loopDelays[j&15], nop)
	}
	t := k.Schedule(time.Hour, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(loopDelays[i&15])
	}
}

// BenchmarkScheduleCancel measures the schedule-then-cancel round trip
// against a standing population — the timeout-timer pattern, where
// almost every deadline is cancelled before it fires.
func BenchmarkScheduleCancel(b *testing.B) {
	k := sim.NewKernel(1)
	nop := func() {}
	for j := 0; j < eventLoopPending; j++ {
		k.Schedule(loopDelays[j&15], nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(loopDelays[i&15], nop).Cancel()
	}
}

// psqConcurrency is how many jobs share the PS server in the submit
// benchmark, so completions exercise rate recomputation across a
// non-trivial runnable set.
const psqConcurrency = 8

// psqDemands staggers the job demands so completions pop one at a time
// (equal demands submitted at the same attained value would tie and
// batch-complete, leaving the heap idle).
var psqDemands = [8]time.Duration{
	1100 * time.Nanosecond, 700 * time.Nanosecond, 2300 * time.Nanosecond,
	400 * time.Nanosecond, 1900 * time.Nanosecond, 900 * time.Nanosecond,
	3100 * time.Nanosecond, 1300 * time.Nanosecond,
}

// BenchmarkPSQSubmit measures the PS-server submit→share→complete cycle:
// a closed population of psqConcurrency jobs where every completion
// submits a replacement. One op = one job served end to end.
func BenchmarkPSQSubmit(b *testing.B) {
	k := sim.NewKernel(1)
	s := psq.New(k, 4)
	remaining := b.N
	i := 0
	var next func()
	next = func() {
		if remaining == 0 {
			return
		}
		remaining--
		s.Submit(psqDemands[i&7], next)
		i++
	}
	for j := 0; j < psqConcurrency; j++ {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(k.Processed())/float64(b.N), "events/op")
	}
}

// sketchValues is the deterministic observation pattern of the sketch
// benchmark: latencies spanning the sub-millisecond to multi-second
// range, so inserts hit buckets across the key space. Indexed with i&7.
var sketchValues = [8]float64{
	0.4, 12.75, 380.0, 3.2, 1900.5, 47.0, 0.9, 220.3,
}

// BenchmarkSketchObserve measures the flight recorder's hot-path cost:
// one quantile-sketch insert (log, ceil, bucket increment — no
// allocation). One op = one Observe.
func BenchmarkSketchObserve(b *testing.B) {
	s := stats.NewSketch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(sketchValues[i&7])
	}
}

// BenchmarkRequestWithFlightRecorder is BenchmarkSocialNetworkRequest
// with an armed flight recorder: the delta against the plain run is the
// recorder's total per-request overhead (arrival/completion hooks, e2e
// classification, sketch inserts), and the allocs/op figure proves the
// hooks stay allocation-free (the window is an hour, so no flush tick
// fires mid-measurement).
func BenchmarkRequestWithFlightRecorder(b *testing.B) {
	k := sim.NewKernel(1)
	rec := telemetry.NewRecorder("bench")
	c, err := cluster.New(k, topology.SocialNetwork(topology.SocialNetworkConfig{}), cluster.Options{Telemetry: rec})
	if err != nil {
		b.Fatal(err)
	}
	f, err := c.ArmFlightRecorder(time.Hour, 100*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	// The armed window ticker keeps the queue non-empty: advance in
	// bounded steps instead of draining with Run.
	step := sim.Time(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitMix()
		k.RunUntil(k.Now() + step)
	}
	b.StopTimer()
	f.Stop()
	if b.N > 0 {
		b.ReportMetric(float64(k.Processed())/float64(b.N), "events/op")
	}
}

// BenchmarkSocialNetworkRequest measures the full request hot path end
// to end on the Social Network topology: admission, PS scheduling, RPC
// fan-out, span phase recording, trace assembly. One op = one request;
// the events/op metric converts the figure into kernel events/s.
func BenchmarkSocialNetworkRequest(b *testing.B) {
	k := sim.NewKernel(1)
	c, err := cluster.New(k, topology.SocialNetwork(topology.SocialNetworkConfig{}), cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitMix()
		k.Run()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(k.Processed())/float64(b.N), "events/op")
	}
}
