package bench

import (
	"flag"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"sora/internal/compare"
	"sora/internal/sim"
)

// TestRunMatchesBaseline runs the sentinel's suite once per benchmark
// and checks that it produces exactly the benchmarks BASELINE.json
// gates: a benchmark added to Run without a baseline entry, or a gated
// one dropped from it, fails here instead of only as a MISSING line of
// the full-mode sentinel.
func TestRunMatchesBaseline(t *testing.T) {
	b, err := compare.LoadBaseline("../../BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range b.Entries {
		rest, ok := strings.CutPrefix(e.Name, "bench/")
		if !ok {
			continue
		}
		i := strings.LastIndexByte(rest, '/')
		if i < 0 {
			t.Fatalf("baseline entry %q names no metric", e.Name)
		}
		want = append(want, rest[:i])
	}

	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)
	var got []string
	for _, r := range Run() {
		got = append(got, r.Name)
	}

	slices.Sort(want)
	want = slices.Compact(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("Run() benchmarks = %v, BASELINE.json gates %v", got, want)
	}
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
