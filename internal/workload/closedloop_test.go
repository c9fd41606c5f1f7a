package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sora/internal/dist"
	"sora/internal/sim"
)

// instantService completes every request after the given virtual delay.
func instantService(k *sim.Kernel, delay time.Duration) func(done func()) {
	return func(done func()) { k.Schedule(delay, done) }
}

func TestClosedLoopReachesTarget(t *testing.T) {
	k := sim.NewKernel(1)
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: ConstantUsers(500),
		Submit: instantService(k, time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	k.RunUntil(sim.Time(10 * time.Second))
	if got := cl.Users(); got != 500 {
		t.Errorf("Users = %d, want 500", got)
	}
	cl.Stop()
	k.Run()
	if cl.Users() != 0 {
		t.Errorf("Users after Stop+drain = %d, want 0", cl.Users())
	}
}

func TestClosedLoopThroughputMatchesLittlesLaw(t *testing.T) {
	// N users, Z=1s think, near-zero response time: X ~= N/Z.
	k := sim.NewKernel(2)
	count := 0
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: ConstantUsers(400),
		Think:  dist.NewExponential(time.Second),
		Submit: func(done func()) {
			count++
			k.Schedule(time.Millisecond, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	k.RunUntil(sim.Time(60 * time.Second))
	cl.Stop()
	k.Run()
	rate := float64(count) / 60
	if math.Abs(rate-400) > 40 {
		t.Errorf("throughput = %.0f req/s, want ~400 (N/Z)", rate)
	}
}

func TestClosedLoopSelfThrottlesUnderSlowService(t *testing.T) {
	// With response time R = 1s and think Z = 1s, X = N/(Z+R) ~= N/2.
	k := sim.NewKernel(3)
	count := 0
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: ConstantUsers(200),
		Think:  dist.NewDeterministic(time.Second),
		Submit: func(done func()) {
			count++
			k.Schedule(time.Second, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	k.RunUntil(sim.Time(60 * time.Second))
	cl.Stop()
	k.Run()
	rate := float64(count) / 60
	if math.Abs(rate-100) > 15 {
		t.Errorf("throughput = %.0f req/s, want ~100 (N/(Z+R))", rate)
	}
}

func TestClosedLoopFollowsTargetChanges(t *testing.T) {
	k := sim.NewKernel(4)
	target := func(t sim.Time) int {
		switch {
		case t < sim.Time(20*time.Second):
			return 100
		case t < sim.Time(40*time.Second):
			return 700
		default:
			return 50
		}
	}
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: target,
		Submit: instantService(k, time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	k.RunUntil(sim.Time(15 * time.Second))
	if got := cl.Users(); got != 100 {
		t.Errorf("phase 1 users = %d, want 100", got)
	}
	k.RunUntil(sim.Time(35 * time.Second))
	if got := cl.Users(); got != 700 {
		t.Errorf("phase 2 users = %d, want 700", got)
	}
	// Retirements happen at think boundaries: allow a couple of seconds.
	k.RunUntil(sim.Time(55 * time.Second))
	if got := cl.Users(); got > 60 {
		t.Errorf("phase 3 users = %d, want <= ~50 after drain", got)
	}
	cl.Stop()
	k.Run()
}

func TestClosedLoopStartIdempotent(t *testing.T) {
	k := sim.NewKernel(5)
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: ConstantUsers(50),
		Submit: instantService(k, time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Start()
	k.RunUntil(sim.Time(10 * time.Second))
	if got := cl.Users(); got != 50 {
		t.Errorf("Users after double Start = %d, want 50", got)
	}
	cl.Stop()
	k.Run()
}

func TestClosedLoopIssuedCounter(t *testing.T) {
	k := sim.NewKernel(6)
	count := 0
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: ConstantUsers(10),
		Submit: func(done func()) {
			count++
			k.Schedule(time.Millisecond, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	k.RunUntil(sim.Time(30 * time.Second))
	cl.Stop()
	k.Run()
	if cl.Issued() != uint64(count) {
		t.Errorf("Issued = %d, submit count = %d", cl.Issued(), count)
	}
	if count == 0 {
		t.Error("no requests issued")
	}
}

func TestClosedLoopConstructorErrors(t *testing.T) {
	k := sim.NewKernel(7)
	if _, err := NewClosedLoop(nil, ClosedLoopConfig{Target: ConstantUsers(1), Submit: func(func()) {}}); err == nil {
		t.Error("nil kernel: expected error")
	}
	if _, err := NewClosedLoop(k, ClosedLoopConfig{Submit: func(func()) {}}); err == nil {
		t.Error("nil target: expected error")
	}
	if _, err := NewClosedLoop(k, ClosedLoopConfig{Target: ConstantUsers(1)}); err == nil {
		t.Error("nil submit: expected error")
	}
}

func TestConstantUsersClampsNegative(t *testing.T) {
	if got := ConstantUsers(-5)(0); got != 0 {
		t.Errorf("negative users = %d, want 0", got)
	}
}

func TestTraceUsers(t *testing.T) {
	tr := Trace{Name: "ramp", Points: []TracePoint{{0, 0}, {1, 1}}}
	target := TraceUsers(tr, 10*time.Minute, 1000)
	if got := target(0); got != 0 {
		t.Errorf("target(0) = %d, want 0", got)
	}
	if got := target(sim.Time(5 * time.Minute)); got < 480 || got > 520 {
		t.Errorf("target(mid) = %d, want ~500", got)
	}
	if got := target(sim.Time(20 * time.Minute)); got != 1000 {
		t.Errorf("target past end = %d, want clamped 1000", got)
	}
	if TraceUsers(tr, 0, 100)(0) != 0 {
		t.Error("zero duration should give zero users")
	}
	if TraceUsers(tr, time.Minute, 0)(0) != 0 {
		t.Error("zero peak should give zero users")
	}
}

// Property: after any reconciliation history the population equals the
// current target (given instant service and enough settle time).
func TestQuickClosedLoopTracksTarget(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		levels := make([]int, len(raw))
		for i, r := range raw {
			levels[i] = int(r % 1000)
		}
		k := sim.NewKernel(99)
		phase := 20 * time.Second
		target := func(t sim.Time) int {
			idx := int(t / sim.Time(phase))
			if idx >= len(levels) {
				idx = len(levels) - 1
			}
			return levels[idx]
		}
		cl, err := NewClosedLoop(k, ClosedLoopConfig{
			Target: target,
			Think:  dist.NewDeterministic(time.Second),
			Submit: func(done func()) { k.Schedule(time.Millisecond, done) },
		})
		if err != nil {
			return false
		}
		cl.Start()
		// Settle into the final phase.
		k.RunUntil(sim.Time(phase) * sim.Time(len(levels)+1))
		want := levels[len(levels)-1]
		got := cl.Users()
		cl.Stop()
		k.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestClosedLoopCycleAllocFree pins the steady-state user cycle at zero
// allocations: the cycle and think-restart callbacks are bound once in
// NewClosedLoop, and the kernel recycles the timers they schedule. The
// stub submit parks the completion callback, so each measured run is
// exactly one cycle: complete, think, issue the next request.
func TestClosedLoopCycleAllocFree(t *testing.T) {
	k := sim.NewKernel(3)
	var done func()
	cl, err := NewClosedLoop(k, ClosedLoopConfig{
		Target: ConstantUsers(1),
		Submit: func(d func()) { done = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if d := done; d != nil {
			done = nil
			d()
		}
		for done == nil && k.Step() {
		}
	}
	cl.Start()
	cycle()
	issued := cl.Issued()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("user cycle allocates %.2f objects, want 0", avg)
	}
	if got := cl.Issued() - issued; got != 101 {
		t.Fatalf("issued %d requests over 101 cycles", got)
	}
}
