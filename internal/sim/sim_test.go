package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	k.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	// Cancelling again must be a no-op.
	tm.Cancel()
}

func TestCancelNilTimer(t *testing.T) {
	var tm *Timer
	tm.Cancel() // must not panic
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", k.Pending())
	}
	k.Run()
	if len(fired) != 3 {
		t.Errorf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(time.Millisecond, rec)
		}
	}
	k.Schedule(0, rec)
	k.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if k.Now() != 99*time.Millisecond {
		t.Errorf("Now() = %v, want 99ms", k.Now())
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(time.Second, func() {
		tm := k.Schedule(-time.Hour, func() {})
		if tm.at != time.Second {
			t.Errorf("negative delay scheduled at %v, want now (1s)", tm.at)
		}
	})
	k.Run()
}

func TestAtPastClamped(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(time.Second, func() {
		fired := false
		k.At(0, func() { fired = true })
		// The clamped event must still run, at current time.
		k.Step()
		if !fired {
			t.Error("past-scheduled event did not fire")
		}
		if k.Now() != time.Second {
			t.Errorf("clock moved backwards to %v", k.Now())
		}
	})
	k.Run()
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	var at []time.Duration
	tk := k.Every(100*time.Millisecond, func() { at = append(at, k.Now()) })
	k.RunUntil(350 * time.Millisecond)
	tk.Stop()
	k.RunUntil(time.Second)
	if len(at) != 3 {
		t.Fatalf("ticker fired %d times, want 3: %v", len(at), at)
	}
	for i, want := range []time.Duration{100, 200, 300} {
		if at[i] != want*time.Millisecond {
			t.Errorf("tick %d at %v, want %v", i, at[i], want*time.Millisecond)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tk *Ticker
	tk = k.Every(time.Second, func() {
		count++
		tk.Stop()
	})
	k.RunUntil(10 * time.Second)
	if count != 1 {
		t.Errorf("ticker fired %d times after in-callback Stop, want 1", count)
	}
}

func TestEveryPanicsOnBadArgs(t *testing.T) {
	k := NewKernel(1)
	for name, fn := range map[string]func(){
		"zero interval": func() { k.Every(0, func() {}) },
		"nil callback":  func() { k.Every(time.Second, nil) },
		"nil at":        func() { k.At(time.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(42)
		rng := k.Split(1)
		var out []uint64
		for i := 0; i < 50; i++ {
			d := time.Duration(rng.Int64N(int64(time.Second)))
			k.Schedule(d, func() { out = append(out, rng.Uint64()) })
		}
		k.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	k := NewKernel(1)
	tm := k.Schedule(time.Hour, func() {})
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d before cancel, want 1", k.Pending())
	}
	tm.Cancel()
	if k.Pending() != 0 {
		t.Errorf("Pending() = %d after cancel, want 0", k.Pending())
	}
	// Cancelling again (and cancelling a fired timer) stays a no-op.
	tm.Cancel()
	fired := k.Schedule(0, func() {})
	k.Run()
	fired.Cancel()
	if k.Pending() != 0 {
		t.Errorf("Pending() = %d after post-fire cancel, want 0", k.Pending())
	}
}

// TestCancelChurnBounded is the regression test for the canceled-timer
// leak: repeated schedule/cancel cycles of far-future timers (the timeout
// pattern) must not grow the event queue.
func TestCancelChurnBounded(t *testing.T) {
	k := NewKernel(1)
	// One live heartbeat so the run never goes idle.
	stop := false
	var beat func()
	beat = func() {
		if !stop {
			k.Schedule(time.Millisecond, beat)
		}
	}
	k.Schedule(0, beat)
	for cycle := 0; cycle < 10_000; cycle++ {
		tm := k.Schedule(24*time.Hour, func() { t.Error("cancelled timeout fired") })
		tm.Cancel()
		if p := k.Pending(); p > 2 {
			t.Fatalf("cycle %d: Pending() = %d, cancelled timers are accumulating", cycle, p)
		}
		k.Step()
	}
	stop = true
	k.Run()
}

// TestCancelSurvivesHeapMovement cancels timers after other heap
// operations have shuffled positions, exercising index maintenance.
func TestCancelSurvivesHeapMovement(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	timers := make([]*Timer, 100)
	for i := range timers {
		i := i
		// Descending deadlines so every push sifts to the top.
		timers[i] = k.Schedule(time.Duration(len(timers)-i)*time.Second, func() { fired = append(fired, i) })
	}
	for i := 0; i < len(timers); i += 2 {
		timers[i].Cancel()
	}
	if k.Pending() != 50 {
		t.Fatalf("Pending() = %d after cancelling half, want 50", k.Pending())
	}
	k.Run()
	if len(fired) != 50 {
		t.Fatalf("%d timers fired, want 50", len(fired))
	}
	for _, i := range fired {
		if i%2 == 0 {
			t.Fatalf("cancelled timer %d fired", i)
		}
	}
}

// TestSplitOrderIndependent pins the Split determinism contract: the
// stream for a label depends only on (kernel seed, label), not on how
// many splits happened before.
func TestSplitOrderIndependent(t *testing.T) {
	draw := func(r *rand.Rand) [4]uint64 {
		var out [4]uint64
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}

	k1 := NewKernel(42)
	a1 := draw(k1.Split(1))
	b1 := draw(k1.Split(2))

	k2 := NewKernel(42)
	b2 := draw(k2.Split(2))
	k2.Split(99) // extra consumer
	a2 := draw(k2.Split(1))

	if a1 != a2 {
		t.Errorf("split(1) depends on split order/parent draws: %v vs %v", a1, a2)
	}
	if b1 != b2 {
		t.Errorf("split(2) depends on split order/parent draws: %v vs %v", b1, b2)
	}

}

func TestSplitStreamsIndependent(t *testing.T) {
	k := NewKernel(7)
	a := k.Split(1)
	b := k.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams produced %d identical draws out of 100", same)
	}
}

// Property: for any set of delays, events fire in sorted order and the
// final clock equals the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		k := NewKernel(3)
		delays := make([]time.Duration, len(raw))
		for i, r := range raw {
			delays[i] = time.Duration(r % 1_000_000_000)
		}
		var fired []time.Duration
		for _, d := range delays {
			k.Schedule(d, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		maxd := delays[0]
		for _, d := range delays {
			if d > maxd {
				maxd = d
			}
		}
		return k.Now() == maxd && len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset prevents exactly that subset
// from firing.
func TestQuickCancelSubset(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		k := NewKernel(5)
		fired := make(map[int]bool)
		timers := make([]*Timer, len(raw))
		for i, r := range raw {
			i := i
			timers[i] = k.Schedule(time.Duration(r)*time.Microsecond, func() { fired[i] = true })
		}
		for i := range timers {
			if i < len(mask) && mask[i] {
				timers[i].Cancel()
			}
		}
		k.Run()
		for i := range timers {
			wantFired := !(i < len(mask) && mask[i])
			if fired[i] != wantFired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProcessedCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 10; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	k.Run()
	if k.Processed() != 10 {
		t.Errorf("Processed() = %d, want 10", k.Processed())
	}
}

// TestTimerSize pins the Timer struct at 48 bytes: the near/far flag
// rides in the padding after canceled.
func TestTimerSize(t *testing.T) {
	if got := unsafe.Sizeof(Timer{}); got != 48 {
		t.Fatalf("Timer is %d bytes, want 48", got)
	}
}
