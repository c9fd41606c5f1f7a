package bench

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/psq"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// Result is one benchmark's outcome in machine-comparable form.
// EventsPerSec is the headline throughput figure: simulation events
// executed per wall-clock second (EventsPerOp is 1 for the pure
// event-loop benchmarks and the kernel's measured events-per-request
// for the end-to-end run).
type Result struct {
	Name         string  `json:"name"`
	Iters        int     `json:"iters"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerOp  float64 `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// result converts a testing.BenchmarkResult, deriving events/s from the
// per-op wall cost and the events/op metric reported by the benchmark
// body (defaulting to one event per op).
func result(name string, r testing.BenchmarkResult) Result {
	res := Result{
		Name:        name,
		Iters:       r.N,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		EventsPerOp: 1,
	}
	if r.N > 0 {
		res.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	if v, ok := r.Extra["events/op"]; ok {
		res.EventsPerOp = v
	}
	if res.NsPerOp > 0 {
		res.EventsPerSec = res.EventsPerOp * 1e9 / res.NsPerOp
	}
	return res
}

// Run executes the whole suite and returns results in fixed order. Each
// benchmark is timed by testing.Benchmark, so -test.benchtime (set via
// testing.Init + flag.Set by callers that want a quick smoke run)
// controls the measurement window.
func Run() []Result {
	return []Result{
		result("kernel/eventloop", testing.Benchmark(BenchmarkEventLoop)),
		result("kernel/eventloop/containerheap", testing.Benchmark(BenchmarkEventLoopContainerHeap)),
		result("kernel/eventloop/closedloop", testing.Benchmark(BenchmarkEventLoopClosedLoop)),
		result("kernel/eventloop/closedloop/containerheap", testing.Benchmark(BenchmarkEventLoopClosedLoopContainerHeap)),
		result("kernel/reset", testing.Benchmark(BenchmarkTimerReset)),
		result("kernel/cancel", testing.Benchmark(BenchmarkScheduleCancel)),
		result("psq/submit", testing.Benchmark(BenchmarkPSQSubmit)),
		result("cluster/socialnetwork", testing.Benchmark(BenchmarkSocialNetworkRequest)),
		result("stats/sketch/observe", testing.Benchmark(BenchmarkSketchObserve)),
		result("cluster/request/flight", testing.Benchmark(BenchmarkRequestWithFlightRecorder)),
		result("core/scg/recommend", testing.Benchmark(BenchmarkSCGRecommend)),
		result("core/scg/recommend/slide", testing.Benchmark(BenchmarkSCGRecommendSlide)),
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
// frozen container/heap kernel — the "before" of every
// BENCH_kernel.json entry, regenerated on the same machine as the
// "after".
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

// closedLoopUsers is the standing think-timer population of the
// closed-loop benchmarks: the user count of the steady workload.
const closedLoopUsers = 900

// closedLoopHops is how many sub-millisecond hops each think timer sets
// off before the user thinks again — about the ratio of sub-10 ms to
// think-scale schedules measured on the closed-loop workloads.
const closedLoopHops = 20

// hopDelays is the hop pattern of the closed-loop benchmarks: network
// hops and PS completions, all under a millisecond. Indexed with i&7.
var hopDelays = [8]time.Duration{
	17 * time.Microsecond, 450 * time.Nanosecond, 211 * time.Microsecond,
	5 * time.Microsecond, 731 * time.Microsecond, 90 * time.Nanosecond,
	66 * time.Microsecond, 329 * time.Microsecond,
}

// closedLoop drives the event queue the way a closed-loop user
// population does: closedLoopUsers timers thinking exp(1 s) each, and
// every think firing a chain of closedLoopHops sub-millisecond hops
// whose last hop arms the next think. schedule abstracts over the live
// kernel and the reference, so both pay the same indirection.
type closedLoop struct {
	schedule  func(time.Duration, func())
	rng       *rand.Rand
	remaining int
	hop       int
}

// closedLoopUser is one user's chain state, with its callbacks bound
// once so the loop allocates nothing beyond what the kernel does.
type closedLoopUser struct {
	l              *closedLoop
	left           int
	thinkFn, hopFn func()
}

// think ends a think period and sends the user's first hop.
func (u *closedLoopUser) think() {
	u.l.remaining--
	u.left = closedLoopHops
	u.l.schedule(hopDelays[u.l.hop&7], u.hopFn)
	u.l.hop++
}

// next lands one hop and sends the following one, or starts the next
// think period after the last.
func (u *closedLoopUser) next() {
	l := u.l
	l.remaining--
	if u.left--; u.left > 0 {
		l.schedule(hopDelays[l.hop&7], u.hopFn)
		l.hop++
		return
	}
	l.schedule(l.thinkTime(), u.thinkFn)
}

// thinkTime draws one exponential think time with a 1 s mean.
func (l *closedLoop) thinkTime() time.Duration {
	return time.Duration(l.rng.ExpFloat64() * float64(time.Second))
}

// runClosedLoop seeds the user population and steps until b.N events
// have fired. One op = one event.
func runClosedLoop(b *testing.B, schedule func(time.Duration, func()), step func() bool) {
	// The think times come from a throwaway kernel's split stream, so the
	// live and reference runs see the same sequence.
	l := &closedLoop{schedule: schedule, rng: sim.NewKernel(1).Split(0x7417), remaining: b.N}
	for j := 0; j < closedLoopUsers; j++ {
		u := &closedLoopUser{l: l}
		u.thinkFn, u.hopFn = u.think, u.next
		schedule(l.thinkTime(), u.thinkFn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for l.remaining > 0 && step() {
	}
}

// BenchmarkEventLoopClosedLoop measures the kernel on a queue shaped
// like the closed-loop experiments': mostly far-future think timers,
// with nearly every fired event a sub-millisecond hop.
func BenchmarkEventLoopClosedLoop(b *testing.B) {
	k := sim.NewKernel(1)
	runClosedLoop(b, func(d time.Duration, fn func()) { k.Schedule(d, fn) }, k.Step)
}

// BenchmarkEventLoopClosedLoopContainerHeap runs the identical workload
// on the frozen container/heap kernel.
func BenchmarkEventLoopClosedLoopContainerHeap(b *testing.B) {
	k := NewRefKernel()
	runClosedLoop(b, func(d time.Duration, fn func()) { k.Schedule(d, fn) }, k.Step)
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

// scgWindow is the warmed deployment the decision benchmarks decide on:
// Social Network home-timeline reads from 2000 closed-loop users, run
// for scgWarm virtual seconds so the model's 45 s window is full. It is
// built once per process, so repeated testing.Benchmark rounds and quick
// runs time the decision, not the warm-up.
var scgWindow struct {
	once    sync.Once
	err     error
	c       *cluster.Cluster
	mon     *core.Monitor
	now     sim.Time
	managed []core.ManagedResource
}

// scgConfig is the decision benchmarks' model configuration.
var scgConfig = core.SCGConfig{SLA: 400 * time.Millisecond, Window: 45 * time.Second}

// scgPeriod is the control period between the two decisions of
// BenchmarkSCGRecommendSlide, the drift experiments' 15 s.
const scgPeriod = 15 * time.Second

// scgWarm is the virtual warm-up of the decision benchmark's deployment.
const scgWarm = time.Minute

// warmSCGWindow builds scgWindow: the deployment, the monitor sampling
// its concurrency and utilization, and an SCG model over a 45 s window.
func warmSCGWindow() {
	w := &scgWindow
	k := sim.NewKernel(1)
	c, err := cluster.New(k, topology.SocialNetwork(topology.DefaultSocialNetwork()), cluster.Options{})
	if err != nil {
		w.err = err
		return
	}
	if w.err = c.SetMix(topology.HomeTimelineOnlyMix(false)); w.err != nil {
		return
	}
	conns := cluster.ResourceRef{Service: topology.HomeTimeline, Kind: cluster.PoolClientConns, Target: topology.PostStorage}
	mon, err := core.NewMonitor(c, 0, []cluster.ResourceRef{conns}, c.ServiceNames())
	if err != nil {
		w.err = err
		return
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(2000),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		w.err = err
		return
	}
	mon.Start()
	loop.Start()
	k.RunUntil(sim.Time(scgWarm))
	w.c, w.mon = c, mon
	w.now = k.Now()
	w.managed = []core.ManagedResource{{Ref: conns, Min: 4, Max: 300}}
}

// BenchmarkSCGRecommend measures one cold SCG decision — critical
// service, deadline propagation, behind-pool check, scatter collection
// and knee estimation — on a warmed 45 s Social Network window. Each op
// decides on a fresh model, so the whole window is walked and sealed.
// One op = one NewSCG and one Recommend.
func BenchmarkSCGRecommend(b *testing.B) {
	scgWindow.once.Do(warmSCGWindow)
	if scgWindow.err != nil {
		b.Fatal(scgWindow.err)
	}
	w := &scgWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewSCG(w.c, w.mon, scgConfig)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Recommend(w.now, w.managed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCGRecommendSlide measures the steady-state decision of a
// control loop: the window at now on a model that decided at
// now−scgPeriod, so two thirds of it are merged from sealed blocks.
// The earlier decision runs untimed. One op = one Recommend.
func BenchmarkSCGRecommendSlide(b *testing.B) {
	scgWindow.once.Do(warmSCGWindow)
	if scgWindow.err != nil {
		b.Fatal(scgWindow.err)
	}
	w := &scgWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := core.NewSCG(w.c, w.mon, scgConfig)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Recommend(w.now-sim.Time(scgPeriod), w.managed); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Recommend(w.now, w.managed); err != nil {
			b.Fatal(err)
		}
	}
}
