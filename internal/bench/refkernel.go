// Package bench is the kernel hot-path micro-benchmark suite behind
// `sorabench -bench-json` and the BENCH_kernel.json artifact. It holds
// the benchmark workloads (event-loop churn, a closed-loop-shaped event
// queue, timer reset/cancel churn, PS-server submit churn, a Social
// Network end-to-end run), the reference implementation they are
// compared against, and the JSON report format that records the
// events/s, ns/op and allocs/op trajectory across PRs (see
// EXPERIMENTS.md for the recording recipe).
package bench

import (
	"container/heap"
	"time"
)

// RefKernel is the container/heap event queue the simulation kernel used
// before the inlined 4-ary heaps, frozen verbatim. It exists for two
// jobs: the `containerheap` twins of the event-loop benchmark entries
// (so every BENCH_kernel.json records the before/after pair on the same
// machine), and the ordering oracle for the heap-order test and
// FuzzKernelOrder in internal/sim — the split-horizon kernel must pop
// timers in exactly the (at, seq) order this single heap does, at any
// near/far partition.
//
// Only the queue-relevant surface is kept (Schedule/At/Cancel/Step/Run);
// RNG plumbing, tickers and stop semantics are irrelevant to either job.
type RefKernel struct {
	now       time.Duration
	seq       uint64
	events    refHeap
	processed uint64
}

// RefTimer is a handle for an event scheduled on a RefKernel. Unlike the
// live kernel's pooled timers, the struct is garbage-collected and the
// handle stays valid (as a no-op) after firing — the pre-pooling
// contract.
type RefTimer struct {
	at       time.Duration
	seq      uint64
	fn       func()
	k        *RefKernel
	index    int
	canceled bool
}

// Cancel removes the timer from the event queue; it is safe to call
// multiple times and after the timer has fired.
func (t *RefTimer) Cancel() {
	if t == nil {
		return
	}
	t.canceled = true
	t.fn = nil
	if t.index >= 0 && t.k != nil {
		heap.Remove(&t.k.events, t.index)
	}
}

// refHeap is a min-heap ordered by (at, seq) via heap.Interface — the
// boxing and indirection the 4-ary rewrite removed.
type refHeap []*RefTimer

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	t := x.(*RefTimer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// NewRefKernel returns a reference kernel at virtual time 0.
func NewRefKernel() *RefKernel { return &RefKernel{} }

// Now returns the current virtual time.
func (k *RefKernel) Now() time.Duration { return k.now }

// Processed returns the number of events executed so far.
func (k *RefKernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently scheduled.
func (k *RefKernel) Pending() int { return len(k.events) }

// Schedule runs fn after delay units of virtual time; negative delays
// clamp to zero.
func (k *RefKernel) Schedule(delay time.Duration, fn func()) *RefTimer {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t, clamped to now.
func (k *RefKernel) At(t time.Duration, fn func()) *RefTimer {
	if t < k.now {
		t = k.now
	}
	k.seq++
	tm := &RefTimer{at: t, seq: k.seq, fn: fn, k: k, index: -1}
	heap.Push(&k.events, tm)
	return tm
}

// Step executes the next pending event, advancing virtual time to its
// timestamp, and reports whether one ran.
func (k *RefKernel) Step() bool {
	for len(k.events) > 0 {
		tm := heap.Pop(&k.events).(*RefTimer)
		if tm.canceled {
			continue
		}
		k.now = tm.at
		fn := tm.fn
		tm.fn = nil
		k.processed++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (k *RefKernel) Run() {
	for k.Step() {
	}
}
