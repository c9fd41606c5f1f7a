package psq

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sora/internal/sim"
)

// approxDur asserts |got-want| <= tol.
func approxDur(t *testing.T, name string, got, want, tol time.Duration) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Errorf("%s: got %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 2)
	var doneAt sim.Time = -1
	s.Submit(100*time.Millisecond, func() { doneAt = k.Now() })
	k.Run()
	approxDur(t, "completion", doneAt, 100*time.Millisecond, time.Microsecond)
}

func TestTwoJobsShareOneCore(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 1, WithOverhead(0))
	var first, second sim.Time = -1, -1
	s.Submit(100*time.Millisecond, func() { first = k.Now() })
	s.Submit(100*time.Millisecond, func() { second = k.Now() })
	k.Run()
	// Both share the core: each takes 200ms.
	approxDur(t, "first", first, 200*time.Millisecond, time.Microsecond)
	approxDur(t, "second", second, 200*time.Millisecond, time.Microsecond)
}

func TestShorterJobFinishesFirst(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 1, WithOverhead(0))
	var shortAt, longAt sim.Time = -1, -1
	s.Submit(300*time.Millisecond, func() { longAt = k.Now() })
	s.Submit(100*time.Millisecond, func() { shortAt = k.Now() })
	k.Run()
	// Shared until short job attains 100ms of work (at t=200ms), then the
	// long job runs alone for its remaining 200ms: done at 400ms.
	approxDur(t, "short", shortAt, 200*time.Millisecond, time.Microsecond)
	approxDur(t, "long", longAt, 400*time.Millisecond, time.Microsecond)
}

func TestJobsWithinCoreCountDoNotInterfere(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 4)
	var times []sim.Time
	for i := 0; i < 4; i++ {
		s.Submit(50*time.Millisecond, func() { times = append(times, k.Now()) })
	}
	k.Run()
	if len(times) != 4 {
		t.Fatalf("%d completions, want 4", len(times))
	}
	for _, at := range times {
		approxDur(t, "completion", at, 50*time.Millisecond, time.Microsecond)
	}
}

func TestOverheadSlowsExcessThreads(t *testing.T) {
	// With alpha>0, running 8 jobs on 4 cores must take strictly longer
	// than the overhead-free 2x slowdown.
	run := func(alpha float64) sim.Time {
		k := sim.NewKernel(1)
		s := New(k, 4, WithOverhead(alpha))
		var last sim.Time
		for i := 0; i < 8; i++ {
			s.Submit(100*time.Millisecond, func() { last = k.Now() })
		}
		k.Run()
		return last
	}
	noOverhead := run(0)
	withOverhead := run(0.05)
	approxDur(t, "no overhead", noOverhead, 200*time.Millisecond, time.Microsecond)
	// Efficiency = 1/(1+0.05*4) = 1/1.2 => 240ms.
	approxDur(t, "with overhead", withOverhead, 240*time.Millisecond, time.Microsecond)
}

func TestZeroDemandCompletesImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 1)
	var doneAt sim.Time = -1
	k.Schedule(time.Second, func() {
		s.Submit(0, func() { doneAt = k.Now() })
	})
	k.Run()
	if doneAt != time.Second {
		t.Errorf("zero-demand job done at %v, want 1s", doneAt)
	}
}

func TestSetCoresMidFlight(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 1, WithOverhead(0))
	var doneAt sim.Time = -1
	s.Submit(200*time.Millisecond, func() { doneAt = k.Now() })
	s.Submit(200*time.Millisecond, nil)
	// After 100ms (each job has 50ms attained), scale 1 -> 2 cores.
	k.Schedule(100*time.Millisecond, func() { s.SetCores(2) })
	k.Run()
	// Remaining 150ms each then runs at full speed: done at 250ms.
	approxDur(t, "done", doneAt, 250*time.Millisecond, time.Microsecond)
}

func TestZeroCoresStallsUntilScaledUp(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 0)
	var doneAt sim.Time = -1
	s.Submit(100*time.Millisecond, func() { doneAt = k.Now() })
	k.Schedule(time.Second, func() { s.SetCores(1) })
	k.Run()
	approxDur(t, "done", doneAt, 1100*time.Millisecond, time.Microsecond)
}

func TestUtilizationAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	s := New(k, 2, WithOverhead(0))
	s.Submit(100*time.Millisecond, nil) // one job on 2 cores: 50% util
	k.RunUntil(100 * time.Millisecond)
	busy := s.CumulativeBusy()
	capacity := s.CumulativeCapacity()
	if math.Abs(busy-0.1) > 1e-6 {
		t.Errorf("busy = %g core-s, want 0.1", busy)
	}
	if math.Abs(capacity-0.2) > 1e-6 {
		t.Errorf("capacity = %g core-s, want 0.2", capacity)
	}
}

// Property: work is conserved — without overhead, the busy core-seconds
// a drained server reports equal the total demand, for arbitrary demands.
func TestQuickWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		k := sim.NewKernel(9)
		s := New(k, 2, WithOverhead(0))
		var totalDemand float64
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			totalDemand += d.Seconds()
			s.Submit(d, nil)
		}
		k.Run()
		return math.Abs(s.CumulativeBusy()-totalDemand) < 1e-6+1e-9*totalDemand
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: completions occur in nondecreasing order of demand when all
// jobs are submitted at t=0 (PS preserves demand ordering).
func TestQuickPSOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 || len(raw) > 32 {
			return true
		}
		k := sim.NewKernel(13)
		s := New(k, 1)
		type rec struct {
			demand time.Duration
			at     sim.Time
		}
		var recs []rec
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			idx := len(recs)
			recs = append(recs, rec{demand: d})
			s.Submit(d, func() { recs[idx].at = k.Now() })
		}
		k.Run()
		for i := range recs {
			for j := range recs {
				if recs[i].demand < recs[j].demand && recs[i].at > recs[j].at {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with alpha=0 and n <= cores, every job completes after exactly
// its demand.
func TestQuickNoInterferenceUnderCoreCount(t *testing.T) {
	f := func(raw [4]uint16) bool {
		k := sim.NewKernel(21)
		s := New(k, 4, WithOverhead(0))
		ok := true
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			s.Submit(d, func() {
				diff := k.Now() - d
				if diff < 0 {
					diff = -diff
				}
				if diff > time.Microsecond {
					ok = false
				}
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
