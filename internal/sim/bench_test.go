package sim_test

import (
	"testing"
	"time"

	"sora/internal/sim"
)

// benchDelays is a fixed mix of near- and far-term delays so heap
// operations land at different depths; indexed with i&7.
var benchDelays = [8]time.Duration{
	13 * time.Microsecond, 2 * time.Millisecond, 700 * time.Nanosecond,
	41 * time.Millisecond, 3 * time.Microsecond, 911 * time.Microsecond,
	95 * time.Microsecond, 6 * time.Millisecond,
}

// BenchmarkScheduleRun measures the schedule→pop→dispatch cycle with a
// self-refilling queue of 256 pending timers: the kernel event loop in
// its steady-state regime. One op = one event.
func BenchmarkScheduleRun(b *testing.B) {
	k := sim.NewKernel(1)
	remaining := b.N
	i := 0
	var fire func()
	fire = func() {
		if remaining == 0 {
			return
		}
		remaining--
		k.Schedule(benchDelays[i&7], fire)
		i++
	}
	for j := 0; j < 256; j++ {
		k.Schedule(benchDelays[j&7], fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkTimerReset measures re-keying a pending timer in place
// against a 256-timer population — the PS-server reschedule pattern.
func BenchmarkTimerReset(b *testing.B) {
	k := sim.NewKernel(1)
	nop := func() {}
	for j := 0; j < 255; j++ {
		k.Schedule(benchDelays[j&7], nop)
	}
	t := k.Schedule(time.Hour, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(benchDelays[i&7])
	}
}

// BenchmarkScheduleCancel measures the schedule-then-cancel round trip —
// the timeout-timer pattern.
func BenchmarkScheduleCancel(b *testing.B) {
	k := sim.NewKernel(1)
	nop := func() {}
	for j := 0; j < 256; j++ {
		k.Schedule(benchDelays[j&7], nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(benchDelays[i&7], nop).Cancel()
	}
}

// allocDelays are the delays the alloc pins run at: one on each side of
// the near horizon, so both heaps are pinned.
var allocDelays = []time.Duration{time.Microsecond, time.Second}

// TestScheduleSteadyStateAllocFree pins the free-list guarantee: once
// the pool is warm, schedule→fire churn performs zero allocations per
// event.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	for _, d := range allocDelays {
		k := sim.NewKernel(1)
		nop := func() {}
		for i := 0; i < 64; i++ {
			k.Schedule(benchDelays[i&7], nop)
		}
		k.Run()
		if avg := testing.AllocsPerRun(1000, func() {
			k.Schedule(d, nop)
			k.Step()
		}); avg != 0 {
			t.Fatalf("schedule(%v)+fire allocates %.2f objects per event, want 0", d, avg)
		}
	}
}

// TestCancelSteadyStateAllocFree pins that the schedule→cancel round
// trip recycles through the free list without allocating.
func TestCancelSteadyStateAllocFree(t *testing.T) {
	for _, d := range allocDelays {
		k := sim.NewKernel(1)
		nop := func() {}
		k.Schedule(d, nop).Cancel()
		if avg := testing.AllocsPerRun(1000, func() {
			k.Schedule(d, nop).Cancel()
		}); avg != 0 {
			t.Fatalf("schedule(%v)+cancel allocates %.2f objects per cycle, want 0", d, avg)
		}
	}
}

// TestResetAllocFree pins that Reset does not allocate at steady state,
// whether it re-keys a timer in place or moves it across the near
// horizon into the other heap.
func TestResetAllocFree(t *testing.T) {
	for _, start := range allocDelays {
		k := sim.NewKernel(1)
		nop := func() {}
		for i := 0; i < 32; i++ {
			k.Schedule(benchDelays[i&7], nop)
			k.Schedule(time.Second+benchDelays[i&7], nop)
		}
		tm := k.Schedule(start, nop)
		i := 0
		if avg := testing.AllocsPerRun(1000, func() {
			tm.Reset(benchDelays[i&7] + allocDelays[i&1])
			i++
		}); avg != 0 {
			t.Fatalf("Reset of a timer first scheduled at %v allocates %.2f objects per call, want 0", start, avg)
		}
	}
}
