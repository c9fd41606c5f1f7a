// Package sim provides the discrete-event simulation kernel that drives the
// entire Sora reproduction: a virtual clock, an event queue with
// deterministic FIFO tie-breaking, cancellable and resettable timers,
// periodic tickers and a seeded random number generator.
//
// All simulated components (cluster instances, workload generators,
// controllers, samplers) schedule callbacks on a single Kernel. Events fire
// in nondecreasing virtual-time order; events scheduled for the same instant
// fire in the order they were scheduled, which makes every run bit-for-bit
// reproducible for a given seed.
//
// The kernel is intentionally single-threaded: determinism matters more
// than parallel speedup for reproducing the paper's figures, and a single
// 12-minute trace-driven experiment completes in a few wall-clock seconds.
// Parallelism lives one layer up: independent simulations (one Kernel per
// goroutine, nothing shared) scale across cores embarrassingly; see the
// experiment package's runner.
//
// # Hot-path design
//
// The event queue is two inlined 4-ary min-heaps specialized to *Timer
// and keyed on (at, seq) — no heap.Interface indirection, no interface
// conversions, and half the tree depth of a binary heap. Sift cost is
// the depth a timer travels, so the queue is split by how far ahead a
// timer was scheduled: the near heap holds timers due within
// nearHorizon (network hops, PS completions), the far heap the rest
// (think timers, control periods). Almost every event fired is a
// near-term hop, and its pop now sifts through the few dozen in-flight
// hops instead of every user's think timer. The next event is the
// smaller of the two tops, so firing order is exactly the single-heap
// order whatever the partition. Fired and cancelled Timer structs go on
// a per-kernel free list and are handed out again by Schedule/At, so
// steady-state event churn allocates nothing. Timer.Reset re-keys a
// pending timer in place inside its heap (one sift, no queue
// round-trip), which is what lets the PS-server model reschedule its
// single completion timer on every state change without allocating.
//
// Timer recycling narrows the Timer handle contract: a handle is live from
// Schedule/At until its callback starts or Cancel returns, and must not be
// used after that — the kernel may already have reissued the struct to an
// unrelated Schedule call. Components that keep a timer field (tickers,
// PS servers, attempt timeouts) therefore nil the field out at the top of
// the callback, before any code that could schedule. Cancel and Reset on
// a handle whose timer already fired or was cancelled are detected (the
// timer is no longer queued) and are a no-op / panic respectively, unless
// the struct has since been reissued — the hazard the ownership rule
// exists to prevent.
//
// History note: Split originally drew its child seed from the parent RNG
// stream, so the *order* of Split calls perturbed both the parent stream
// and every later split. Split streams are now derived purely from the
// kernel seed and the label, so equal (seed, label) always yields the
// same stream regardless of when or in what order splits happen. Runs
// seeded identically before and after this fix produce different (but
// equally valid) sample paths.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Time is a virtual timestamp measured as the duration elapsed since the
// start of the simulation (t=0). Using time.Duration keeps arithmetic with
// intervals trivial and formatting human-readable.
type Time = time.Duration

// Timer is a handle for a scheduled event. A Timer can be cancelled before
// it fires, or re-armed in place with Reset.
//
// Ownership: the handle is valid from Schedule/At until the callback
// starts executing or Cancel returns. After either, the kernel recycles
// the struct for future Schedule calls; holding and using a stale handle
// can act on an unrelated timer. Code that stores a timer in a field must
// clear the field at the top of the callback (before anything that might
// schedule) and after Cancel.
//
//soravet:pool Timer invalidated-by Cancel,Kernel.releaseTimer handle dead once Cancel returns or the callback starts; the kernel free-lists the struct and a later Schedule may reissue it
type Timer struct {
	at       Time
	seq      uint64
	fn       func()
	k        *Kernel
	index    int // position in its heap, -1 once fired/cancelled
	canceled bool
	far      bool // queued in Kernel.far rather than Kernel.near
}

// Cancel prevents the timer's callback from running and removes the timer
// from the event queue immediately, so far-future timers that are almost
// always cancelled (timeouts, deadlines) do not accumulate in the heap.
// The struct is recycled; the handle is dead once Cancel returns.
// Cancelling a nil, fired or already-cancelled timer is a no-op (provided
// the struct has not been reissued; see the ownership rule in the type
// comment).
func (t *Timer) Cancel() {
	if t == nil || t.index < 0 {
		return
	}
	t.canceled = true
	t.fn = nil
	k := t.k
	k.heapOf(t).remove(t.index)
	k.releaseTimer(t)
}

// Canceled reports whether Cancel removed this timer before it fired.
// Only meaningful while the handle is live or before the struct is
// reissued.
func (t *Timer) Canceled() bool { return t.canceled }

// When returns the virtual time the timer is (or was) scheduled to fire at.
func (t *Timer) When() Time { return t.at }

// Reset re-arms a pending timer to fire delay units of virtual time from
// now, keeping its callback. Ordering is exactly that of Cancel followed
// by Schedule: the timer receives a fresh sequence number, so it fires
// after events already queued for the same instant. Unlike
// Cancel+Schedule it performs a single in-place sift and touches no free
// list, unless the new delay crosses the near horizon: then the timer
// moves to the other queue half, as a fresh Schedule would place it.
// A negative delay is treated as zero.
//
// Reset panics on a fired or cancelled timer: once the callback has run
// or Cancel returned, the kernel may have recycled the struct, and
// re-arming it would hijack an unrelated event.
//
//soravet:hotpath BenchmarkTimerReset AllocsPerRun pin: in-place re-key is the zero-alloc alternative to Cancel+Schedule
func (t *Timer) Reset(delay time.Duration) {
	if t == nil || t.index < 0 {
		panic("sim: Reset on a fired or cancelled timer")
	}
	if delay < 0 {
		delay = 0
	}
	k := t.k
	k.seq++
	t.at = k.now + delay
	t.seq = k.seq
	if far := delay >= k.horizon; far != t.far {
		// A timer re-keyed in place across the horizon would bounce
		// between the root and the leaves of a heap whose keys all lie
		// on the other side; moving it keeps both heaps homogeneous.
		k.heapOf(t).remove(t.index)
		t.far = far
		k.heapOf(t).push(t)
		return
	}
	k.heapOf(t).fix(t.index)
}

// Kernel is the discrete-event simulation core. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now  Time
	seq  uint64
	seed uint64
	// The event queue, split by how far ahead each timer was scheduled:
	// near holds timers due less than horizon after the moment they were
	// scheduled or last reset, far holds the rest. The next event is the smaller of the
	// two tops, so the split changes sift depth, never firing order.
	near      timerHeap
	far       timerHeap
	horizon   Time
	free      []*Timer // recycled Timer structs
	rng       *rand.Rand
	processed uint64
	stopped   bool
}

// nearHorizon is the delay below which a timer goes into the near heap.
// Measured scheduling delays cluster below 10 ms (network hops, PS
// completions) and around 1 s (user think times, control periods), with
// a sparse valley between; splitting in the valley leaves the hot near
// heap a few dozen timers deep while the standing think timers sit in
// the far heap untouched until their turn. See DESIGN.md §13.
const nearHorizon = 10 * time.Millisecond

// NewKernel returns a kernel with virtual time 0 and a deterministic RNG
// derived from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{
		seed:    seed,
		horizon: nearHorizon,
		rng:     rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All stochastic
// decisions in a simulation must come from this source (or a child source
// created via Split) to preserve reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Split derives an independent deterministic RNG stream from the kernel
// seed and the given label. The child stream depends only on (seed, label)
// — not on the parent stream's position or on how many other splits
// happened first — so adding a new consumer or reordering consumers does
// not perturb the samples seen by existing ones, and two kernels with the
// same seed hand every consumer the same stream regardless of split order.
func (k *Kernel) Split(label uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitMix64(k.seed^label), label^0xd1b54a32d192ed03))
}

// splitMix64 is the SplitMix64 finalizer, used to decorrelate the
// seed^label values fed to child PCG streams.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently scheduled. Cancelled
// timers are removed from the queue eagerly, so they never count.
func (k *Kernel) Pending() int { return len(k.near) + len(k.far) }

// Schedule runs fn after delay units of virtual time. A negative delay is
// treated as zero (fire as soon as possible, after already-queued events at
// the current instant). It returns a cancellable Timer.
func (k *Kernel) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an
// error in simulation logic; the kernel clamps it to "now" to keep time
// monotonic rather than panicking, since the only way it can occur is a
// rounding artefact in duration arithmetic. The Timer is drawn from the
// kernel's free list when one is available, so steady-state scheduling
// does not allocate.
func (k *Kernel) At(t Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < k.now {
		t = k.now
	}
	k.seq++
	var tm *Timer
	if n := len(k.free); n > 0 {
		tm = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		tm.at = t
		tm.seq = k.seq
		tm.fn = fn
		tm.canceled = false
	} else {
		tm = &Timer{at: t, seq: k.seq, fn: fn, k: k} //soravet:allow hotpath pool miss: allocates only while the live-timer high-water mark rises, then the free list serves every Schedule
	}
	tm.far = t-k.now >= k.horizon
	k.heapOf(tm).push(tm)
	return tm
}

// heapOf returns the queue half that owns t.
func (k *Kernel) heapOf(t *Timer) *timerHeap {
	if t.far {
		return &k.far
	}
	return &k.near
}

// next returns the queue half holding the earliest pending timer, or nil
// when both are empty.
func (k *Kernel) next() *timerHeap {
	if len(k.far) > 0 && (len(k.near) == 0 || timerLess(k.far[0], k.near[0])) {
		return &k.far
	}
	if len(k.near) > 0 {
		return &k.near
	}
	return nil
}

// releaseTimer returns a fired or cancelled timer struct to the free list.
// The caller must already have detached it from the heap.
func (k *Kernel) releaseTimer(t *Timer) {
	t.fn = nil
	//soravet:allow hotpath free-list append reuses capacity at steady state; grows only while the live-timer high-water mark rises
	k.free = append(k.free, t)
}

// Step executes the next pending event, advancing virtual time to its
// timestamp. It reports whether an event was executed (false when the queue
// is empty or the kernel has been stopped). The fired timer struct is
// recycled before the callback runs, so a Schedule inside the callback
// reuses it immediately.
//
//soravet:hotpath BenchmarkEventLoop events/s headline: the pop-advance-dispatch loop runs once per simulated event
func (k *Kernel) Step() bool {
	if k.stopped {
		return false
	}
	h := k.next()
	if h == nil {
		return false
	}
	k.fire(h)
	return true
}

// fire pops the top of h, advances the clock to it and runs its callback.
func (k *Kernel) fire(h *timerHeap) {
	tm := h.pop()
	k.now = tm.at
	fn := tm.fn
	k.releaseTimer(tm)
	k.processed++
	fn()
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to exactly deadline. Events scheduled for after deadline remain
// queued.
//
// If Stop fires mid-run (or the kernel was already stopped), RunUntil
// returns with the clock frozen at the timestamp of the last executed
// event — it is NOT advanced to deadline. This is deliberate: events in
// (now, deadline] are still queued, and advancing past them would make
// the clock run backwards when they eventually fire after Resume. A
// subsequent Resume + RunFor(d) therefore measures d from the stop
// point, not from the abandoned deadline; callers that want to finish
// the original window must Resume and call RunUntil with the same
// absolute deadline again.
func (k *Kernel) RunUntil(deadline Time) {
	for !k.stopped {
		h := k.next()
		if h == nil || (*h)[0].at > deadline {
			break
		}
		k.fire(h)
	}
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
}

// RunFor advances the simulation by d units of virtual time, measured
// from the current clock — after a mid-run Stop, that is the stop point
// (see RunUntil for the stop semantics).
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Stop halts Run/RunUntil after the currently executing event returns,
// freezing the clock at that event's timestamp. Subsequent Step calls
// return false until the kernel is resumed with Resume.
func (k *Kernel) Stop() { k.stopped = true }

// Resume clears a previous Stop.
func (k *Kernel) Resume() { k.stopped = false }

// Stopped reports whether the kernel is currently stopped.
func (k *Kernel) Stopped() bool { return k.stopped }

// The event queue is two timerHeaps (see Kernel.near/far) sharing one
// set of routines. Each is an inlined 4-ary min-heap over *Timer ordered
// by (at, seq): children of slot i live at 4i+1..4i+4, the parent of
// slot i is (i-1)/4, and every slot's timer keeps its index field
// current so Cancel and Reset can locate it in O(1).
type timerHeap []*Timer

// timerLess orders timers by firing time, FIFO within the same instant.
func timerLess(a, b *Timer) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push appends t and sifts it up to its position.
func (h *timerHeap) push(t *Timer) {
	*h = append(*h, t) //soravet:allow hotpath heap append reuses capacity at steady state; grows only while the pending-timer high-water mark rises
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the minimum timer, marking it detached.
func (h *timerHeap) pop() *Timer {
	q := *h
	top := q[0]
	top.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		h.siftDown(0)
	}
	return top
}

// remove detaches the timer at slot i, filling the hole with the last
// element and re-sifting it.
func (h *timerHeap) remove(i int) {
	q := *h
	q[i].index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*h = q[:n]
	if i < n {
		q[i] = last
		last.index = i
		h.fix(i)
	}
}

// fix restores heap order for slot i after its key changed in place.
func (h *timerHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

// siftUp moves the timer at slot i toward the root until its parent is
// not greater.
func (h *timerHeap) siftUp(i int) {
	q := *h
	t := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(t, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = t
	t.index = i
}

// siftDown moves the timer at slot i toward the leaves until no child is
// smaller, reporting whether it moved.
func (h *timerHeap) siftDown(i int) bool {
	q := *h
	n := len(q)
	t := q[i]
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(q[j], q[m]) {
				m = j
			}
		}
		if !timerLess(q[m], t) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = t
	t.index = i
	return i != start
}

// Ticker fires a callback at a fixed virtual-time interval until stopped.
type Ticker struct {
	k        *Kernel
	interval time.Duration
	fn       func()
	fireFn   func() // bound once so re-arming allocates nothing
	timer    *Timer
	stopped  bool
}

// Every schedules fn to run every interval, with the first firing one
// interval from now. It panics if interval is not positive, since a
// non-positive tick would wedge the simulation at the current instant.
func (k *Kernel) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive interval %v", interval))
	}
	if fn == nil {
		panic("sim: Every called with nil callback")
	}
	t := &Ticker{k: k, interval: interval, fn: fn}
	t.fireFn = t.fire
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.k.Schedule(t.interval, t.fireFn)
}

// fire runs one tick. The timer field is cleared before the user callback
// runs: the fired timer struct is already back on the kernel's free list,
// and anything the callback schedules may legitimately reuse it.
func (t *Ticker) fire() {
	t.timer = nil
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop prevents any further firings. Safe to call multiple times and from
// within the ticker callback itself.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Cancel()
		t.timer = nil
	}
}
