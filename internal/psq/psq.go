// Package psq implements an egalitarian processor-sharing (PS) CPU server
// with an efficiency penalty for excess runnable threads. It is the CPU
// model behind every simulated microservice instance (pod).
//
// Semantics: an instance with c cores and n runnable jobs delivers an
// aggregate service rate of
//
//	total(n) = min(n, c) / (1 + alpha * max(0, n-c))   [core-seconds/second]
//
// shared equally among the n jobs. The denominator models multithreading
// overhead (context switching, cache pressure): adding runnable threads
// beyond the core count reduces the useful work the CPU delivers, which is
// the mechanism that makes over-allocated thread pools hurt (Sora paper
// section 2.3).
//
// Implementation: because every runnable job progresses at the same rate,
// a single cumulative "attained service" counter A(t) suffices. A job
// admitted when the counter reads A0 with demand D completes when
// A(t) = A0 + D, so completions pop from a min-heap keyed by A0 + D in
// O(log n), independent of how often the rate changes.
//
// Hot-path notes: the runnable set is an inlined 4-ary min-heap of job
// values (no heap.Interface indirection, no per-job allocation), and the
// server keeps one completion timer that is re-keyed in place with
// sim.Timer.Reset on every state change — steady-state Submit/complete
// churn allocates nothing.
package psq

import (
	"math"
	"time"

	"sora/internal/sim"
)

// job is one unit of CPU work in the runnable heap.
type job struct {
	doneKey float64 // attained-service value at which the job completes
	onDone  func()
}

// completionMargin is the absolute attained-service slack (seconds of
// core work) within which a job counts as complete. reschedule ceils the
// completion delay to whole nanoseconds, so when the timer fires the
// attained counter has reached the lead job's doneKey up to
// floating-point rounding of the rate integration; the margin only needs
// to absorb that rounding. Half a nanosecond keeps it well below the 1 ns
// demand quantum (time.Duration resolution), so two jobs with distinct
// demands can never be batched into one completion, and no more than half
// a nanosecond of demand can ever be forgiven — unlike the previous
// relative margin (1e-9 * attained), which grew without bound on long
// runs. A fire that lands a hair early (attained still below
// doneKey - margin) pops nothing and re-arms; the ceil guarantees each
// re-arm advances the clock by at least 1 ns, so progress is preserved.
const completionMargin = 0.5e-9

// Server is a processor-sharing CPU with a thread-efficiency curve.
// Construct with New; the zero value is not usable.
type Server struct {
	k     *sim.Kernel
	cores float64
	alpha float64

	attained float64 // per-job attained service, seconds of core work
	busy     float64 // cumulative busy core-seconds (including overhead)
	capacity float64 // cumulative core-seconds of configured capacity
	last     sim.Time

	runnable []job // inlined 4-ary min-heap on doneKey
	timer    *sim.Timer

	doneFns    []func()
	completeFn func() // bound once so arming the timer allocates nothing
}

// Option configures a Server.
type Option func(*Server)

// WithOverhead sets the per-excess-thread efficiency penalty alpha.
// alpha = 0 disables multithreading overhead entirely.
func WithOverhead(alpha float64) Option {
	return func(s *Server) {
		if alpha < 0 {
			alpha = 0
		}
		s.alpha = alpha
	}
}

// DefaultOverhead is the default efficiency penalty per runnable thread in
// excess of the core count. Calibrated so that ~200 excess threads cost
// roughly 45% of throughput — strong enough that grossly over-allocated
// pools (200 threads on 2-4 cores) visibly droop in goodput as the paper's
// Figure 3 shows, without collapsing outright: most of the goodput loss at
// over-allocation must come from processor-sharing latency inflation, not
// raw capacity loss.
const DefaultOverhead = 0.004

// New returns a PS server with the given core count attached to kernel k.
func New(k *sim.Kernel, cores float64, opts ...Option) *Server {
	if k == nil {
		panic("psq: New called with nil kernel")
	}
	if cores < 0 {
		cores = 0
	}
	s := &Server{k: k, cores: cores, alpha: DefaultOverhead, last: k.Now()}
	s.completeFn = s.complete
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Cores returns the configured core count.
func (s *Server) Cores() float64 { return s.cores }

// CumulativeBusy returns the total core-seconds the CPU spent occupied,
// including the share burned on multithreading overhead — what a
// cadvisor-style monitor reports as CPU usage.
func (s *Server) CumulativeBusy() float64 {
	s.advance()
	return s.busy
}

// CumulativeCapacity returns the integral over time of the configured core
// count, i.e. the core-seconds that were available. Raw (cadvisor-style)
// utilization over a window is delta(CumulativeBusy)/delta(CumulativeCapacity).
func (s *Server) CumulativeCapacity() float64 {
	s.advance()
	return s.capacity
}

// totalRate returns the aggregate useful service rate with n runnable jobs.
func (s *Server) totalRate(n int) float64 {
	if n == 0 || s.cores == 0 {
		return 0
	}
	nf := float64(n)
	raw := min(nf, s.cores)
	excess := nf - s.cores
	if excess < 0 {
		excess = 0
	}
	return raw / (1 + float64(s.alpha*excess))
}

// perJobRate returns the service rate each runnable job receives.
func (s *Server) perJobRate(n int) float64 {
	if n == 0 {
		return 0
	}
	return s.totalRate(n) / float64(n)
}

// advance integrates the attained-service and busy counters up to "now".
func (s *Server) advance() {
	now := s.k.Now()
	if now <= s.last {
		return
	}
	dt := (now - s.last).Seconds()
	if n := len(s.runnable); n > 0 {
		s.attained += float64(s.perJobRate(n) * dt)
		s.busy += float64(min(float64(n), s.cores) * dt)
	}
	s.capacity += float64(s.cores * dt)
	s.last = now
}

// disarm cancels a pending completion timer, if any.
func (s *Server) disarm() {
	if s.timer != nil {
		s.timer.Cancel()
		s.timer = nil
	}
}

// arm schedules (or re-keys in place) the completion timer. Reset gives
// the timer a fresh sequence number, so ordering is identical to the
// cancel-and-reschedule it replaces.
func (s *Server) arm(dt time.Duration) {
	if s.timer != nil {
		s.timer.Reset(dt)
		return
	}
	s.timer = s.k.Schedule(dt, s.completeFn)
}

// reschedule recomputes the next completion event after any state change.
// advance must have been called first.
func (s *Server) reschedule() {
	if len(s.runnable) == 0 {
		s.disarm()
		return
	}
	remaining := s.runnable[0].doneKey - s.attained
	if remaining <= 0 {
		// Already attained (zero-demand submits): complete via a zero-delay event regardless of the
		// service rate, so a stalled (zero-core) server still finishes
		// jobs that need no CPU at all.
		s.arm(0)
		return
	}
	r := s.perJobRate(len(s.runnable))
	if r <= 0 {
		s.disarm()
		return // stalled (zero cores); re-armed on the next rate change
	}
	// Ceil to whole nanoseconds so the timer never fires before the job has
	// truly attained its demand; firing a hair late merely over-serves by
	// sub-nanosecond work and guarantees forward progress.
	s.arm(time.Duration(math.Ceil(remaining / r * float64(time.Second))))
}

// complete pops every job whose demand has been attained (to within
// completionMargin) and invokes their callbacks after rescheduling.
//
//soravet:hotpath TestSubmitSteadyStateAllocFree completion side of the psq pin: runs once per batch of attained jobs, zero-alloc at steady state
func (s *Server) complete() {
	// The fired timer struct is already back on the kernel free list;
	// drop the handle before anything below can schedule and reuse it.
	s.timer = nil
	s.advance()
	fns := s.doneFns[:0]
	s.doneFns = nil // reentrancy guard: a nested complete gets its own
	for len(s.runnable) > 0 && s.runnable[0].doneKey <= s.attained+completionMargin {
		if onDone := s.jobPop(); onDone != nil {
			fns = append(fns, onDone) //soravet:allow hotpath fns reuses the doneFns scratch buffer; grows only while the per-instant completion batch high-water mark rises
		}
	}
	s.reschedule()
	for i, fn := range fns {
		fns[i] = nil
		fn()
	}
	if s.doneFns == nil {
		s.doneFns = fns[:0]
	}
}

// Submit admits a job with the given CPU demand (single-core execution
// time) and invokes onDone when the demand has been served. A zero demand
// completes at the current instant (via a zero-delay event, preserving
// event ordering) even when the server has no cores. Demand below zero is
// clamped to zero.
//
//soravet:hotpath TestSubmitSteadyStateAllocFree admission side of the psq pin: one Submit per simulated request hop, zero-alloc once the runnable heap has grown to its high-water mark
func (s *Server) Submit(demand time.Duration, onDone func()) {
	if demand < 0 {
		demand = 0
	}
	s.advance()
	s.jobPush(job{doneKey: s.attained + demand.Seconds(), onDone: onDone})
	s.reschedule()
}

// SetCores changes the CPU limit at the current instant (vertical scaling).
// In-flight jobs immediately progress at the new rate.
func (s *Server) SetCores(cores float64) {
	if cores < 0 {
		cores = 0
	}
	s.advance()
	s.cores = cores
	s.reschedule()
}

// The runnable set: an inlined 4-ary min-heap of jobs ordered by
// doneKey, mirroring the sim kernel's timer heap (children of slot i at
// 4i+1..4i+4, parent at (i-1)/4).

// jobPush adds j to the runnable heap.
func (s *Server) jobPush(j job) {
	s.runnable = append(s.runnable, j) //soravet:allow hotpath heap append reuses capacity at steady state; grows only while the runnable-set high-water mark rises
	s.jobSiftUp(len(s.runnable) - 1)
}

// jobPop removes the job with the smallest doneKey and returns its
// callback.
func (s *Server) jobPop() func() {
	h := s.runnable
	onDone := h[0].onDone
	n := len(h) - 1
	last := h[n]
	h[n] = job{}
	s.runnable = h[:n]
	if n > 0 {
		h[0] = last
		s.jobSiftDown(0)
	}
	return onDone
}

func (s *Server) jobSiftUp(i int) {
	h := s.runnable
	j := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if j.doneKey >= h[p].doneKey {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = j
}

func (s *Server) jobSiftDown(i int) {
	h := s.runnable
	n := len(h)
	j := h[i]
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
		for q := c + 1; q < end; q++ {
			if h[q].doneKey < h[m].doneKey {
				m = q
			}
		}
		if h[m].doneKey >= j.doneKey {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = j
}
