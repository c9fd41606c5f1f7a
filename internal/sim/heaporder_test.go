package sim_test

import (
	"math"
	"testing"
	"time"

	"sora/internal/bench"
	"sora/internal/sim"
)

// timerPair is one logical event scheduled on both kernels under test.
type timerPair struct {
	id int
	st *sim.Timer
	rt *bench.RefTimer
}

// lockstep drives the live split-horizon kernel and the frozen
// container/heap reference (internal/bench.RefKernel) through identical
// schedule/cancel/reset/step operations and fails on the first
// divergence in which event fires, when, or how many are pending. Reset
// has no reference equivalent, so its oracle is its documented
// definition: Cancel followed by a fresh Schedule (both consume one
// sequence number, keeping the tie-break streams aligned).
//
// Divergence is checked eagerly after every fired event, not just at the
// end: the live kernel recycles fired timer structs, so if the
// implementations ever disagreed about which event fires next, later
// cancels through the bookkeeping here could act on recycled handles and
// corrupt the comparison instead of failing it.
type lockstep struct {
	t        testing.TB
	k        *sim.Kernel
	ref      *bench.RefKernel
	live     []timerPair
	nextID   int
	simFired []int
	refFired []int
}

func newLockstep(t testing.TB, horizon time.Duration) *lockstep {
	k := sim.NewKernel(7)
	sim.SetNearHorizon(k, horizon)
	return &lockstep{t: t, k: k, ref: bench.NewRefKernel()}
}

// schedule adds one logical event to both kernels with the same delay;
// the callbacks record the firing into per-kernel logs.
func (l *lockstep) schedule(d time.Duration) {
	id := l.nextID
	l.nextID++
	l.live = append(l.live, timerPair{
		id: id,
		st: l.k.Schedule(d, func() { l.simFired = append(l.simFired, id) }),
		rt: l.ref.Schedule(d, func() { l.refFired = append(l.refFired, id) }),
	})
}

// forget drops live index i (order is irrelevant).
func (l *lockstep) forget(i int) {
	l.live[i] = l.live[len(l.live)-1]
	l.live = l.live[:len(l.live)-1]
}

// cancel cancels live pair i on both kernels.
func (l *lockstep) cancel(i int) {
	l.live[i].st.Cancel()
	l.live[i].rt.Cancel()
	l.forget(i)
}

// reset re-arms live pair i: Reset on the live kernel, Cancel+Schedule
// on the reference.
func (l *lockstep) reset(i int, d time.Duration) {
	p := &l.live[i]
	id := p.id
	p.st.Reset(d)
	p.rt.Cancel()
	p.rt = l.ref.Schedule(d, func() { l.refFired = append(l.refFired, id) })
}

// step fires one event on each kernel and checks they agree on which
// event that was and when it happened, then retires the pair.
func (l *lockstep) step() {
	okSim, okRef := l.k.Step(), l.ref.Step()
	if okSim != okRef {
		l.t.Fatalf("step availability diverged: sim=%v ref=%v", okSim, okRef)
	}
	if !okSim {
		return
	}
	if len(l.simFired) != len(l.refFired) {
		l.t.Fatalf("fired counts diverged: sim=%d ref=%d", len(l.simFired), len(l.refFired))
	}
	n := len(l.simFired)
	id := l.simFired[n-1]
	if id != l.refFired[n-1] {
		l.t.Fatalf("event %d diverged: sim fired id %d, ref fired id %d", n, id, l.refFired[n-1])
	}
	if l.k.Now() != l.ref.Now() {
		l.t.Fatalf("clocks diverged after event %d: sim=%v ref=%v", n, l.k.Now(), l.ref.Now())
	}
	for i := range l.live {
		if l.live[i].id == id {
			l.forget(i)
			break
		}
	}
}

// checkPending requires both kernels to hold the same number of events,
// and the live kernel's count to be the sum of its two heaps.
func (l *lockstep) checkPending(op int) {
	near, far := sim.QueueSizes(l.k)
	if p := l.k.Pending(); p != l.ref.Pending() || p != near+far {
		l.t.Fatalf("op %d: pending diverged: sim=%d (near %d + far %d) ref=%d",
			op, p, near, far, l.ref.Pending())
	}
}

// drain fires everything left on both kernels.
func (l *lockstep) drain() {
	for l.k.Pending() > 0 || l.ref.Pending() > 0 {
		l.step()
	}
	if len(l.simFired) != len(l.refFired) {
		l.t.Fatalf("total fired diverged: sim=%d ref=%d", len(l.simFired), len(l.refFired))
	}
}

// testHorizons are the near/far splits the order tests run at. Firing
// order must be the single-heap order at every one of them.
var testHorizons = []struct {
	name string
	h    time.Duration
}{
	{"all-far", 0},
	{"zero-delay-near", 1},
	{"default", sim.NearHorizon},
	{"all-near", math.MaxInt64},
}

// straddle returns a delay drawn around horizon h: coarse sub-horizon
// and think-scale quantizations force plenty of exact (at, seq) ties,
// and h itself and its neighbours land on both sides of the split.
func straddle(x int, h time.Duration) time.Duration {
	switch x % 8 {
	case 0:
		if h <= time.Hour {
			return h + time.Duration(x/8%3) - 1 // h-1, h, h+1
		}
		return time.Hour
	case 1, 2:
		return time.Duration(x/8%8) * 250 * time.Millisecond
	}
	return time.Duration(x/8%64) * 250 * time.Microsecond
}

// TestHeapOrderMatchesContainerHeap drives the live kernel and the
// reference through an identical randomized stream of
// insert/cancel/reset/step operations at each test horizon and requires
// them to fire events in exactly the same order at exactly the same
// virtual times. Delays straddle the horizon and include it exactly;
// resets move keys across it in both directions (and the timer to the
// heap a fresh Schedule would pick) and cancels hit both heaps, which
// the test counts to prove the stream exercised them.
func TestHeapOrderMatchesContainerHeap(t *testing.T) {
	for _, tc := range testHorizons {
		h := tc.h
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewKernel(0xbead).Split(0x4a11)
			l := newLockstep(t, h)
			var down, up, nearCancels, farCancels int
			const ops = 20000
			for op := 0; op < ops; op++ {
				switch x := rng.IntN(100); {
				case x < 40 || len(l.live) == 0:
					l.schedule(straddle(rng.IntN(1<<16), h))
				case x < 55:
					i := rng.IntN(len(l.live))
					if sim.InFar(l.live[i].st) {
						farCancels++
					} else {
						nearCancels++
					}
					l.cancel(i)
				case x < 70:
					i := rng.IntN(len(l.live))
					d := straddle(rng.IntN(1<<16), h)
					switch far := sim.InFar(l.live[i].st); {
					case far && d < h:
						down++
					case !far && d >= h:
						up++
					}
					l.reset(i, d)
					if sim.InFar(l.live[i].st) != (max(d, 0) >= h) {
						t.Fatalf("op %d: Reset(%v) left the timer in the wrong heap at horizon %v", op, d, h)
					}
				default:
					l.step()
				}
				l.checkPending(op)
			}
			l.drain()
			if h > 0 && h < math.MaxInt64 &&
				(down == 0 || up == 0 || nearCancels == 0 || farCancels == 0) {
				t.Fatalf("stream missed a case: resets far→near %d, near→far %d; cancels near %d, far %d",
					down, up, nearCancels, farCancels)
			}
		})
	}
}
