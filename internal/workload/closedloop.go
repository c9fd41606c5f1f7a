package workload

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sora/internal/dist"
	"sora/internal/sim"
)

// TargetFunc returns the desired number of concurrent simulated users at
// virtual time t.
type TargetFunc func(t sim.Time) int

// ConstantUsers returns a TargetFunc with a fixed user population.
func ConstantUsers(n int) TargetFunc {
	if n < 0 {
		n = 0
	}
	return func(sim.Time) int { return n }
}

// TraceUsers maps a normalized trace profile to a user population over the
// given duration, peaking at peakUsers — how the paper replays the six
// bursty traces against its closed-loop RUBBoS generator.
func TraceUsers(tr Trace, duration time.Duration, peakUsers int) TargetFunc {
	if duration <= 0 || peakUsers <= 0 {
		return ConstantUsers(0)
	}
	return func(t sim.Time) int {
		f := float64(t) / float64(duration)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return int(tr.Intensity(f) * float64(peakUsers))
	}
}

// ClosedLoop simulates a population of users in the classic closed-loop
// pattern of the RUBBoS workload generator the paper uses: each user
// repeatedly thinks for a sampled think time, issues one request, and
// waits for its response before thinking again. Closed loops self-throttle
// under overload — response time stretches instead of queues growing
// without bound — which is the regime in which the paper's goodput knees
// are measured.
//
// The user population follows a TargetFunc, re-evaluated on a control
// ticker: new users are spawned (entering at a random point of their think
// cycle to avoid thundering herds) and surplus users retire at their next
// think boundary.
type ClosedLoop struct {
	k      *sim.Kernel
	think  dist.Distribution
	target TargetFunc
	submit func(done func())
	rng    *rand.Rand

	users   int // users currently alive (thinking or waiting)
	retire  int // users that must exit at their next boundary
	running bool
	ticker  *sim.Ticker

	// Bound once so the per-request cycle allocates nothing: cycleFn is
	// cl.userCycle, thinkFn the completion callback that starts the
	// next think period.
	cycleFn, thinkFn func()

	issued uint64
}

// ClosedLoopConfig configures NewClosedLoop. Users think for an
// exponential time of mean thinkTime between requests, and the
// population is reconciled against Target every reconcilePeriod.
type ClosedLoopConfig struct {
	// Target is the user population over time (required).
	Target TargetFunc
	// Submit issues one request and must invoke done exactly once when
	// the request completes (required). Typically
	// func(done func()) { c.SubmitMixWith(done) }.
	Submit func(done func())
}

const (
	// thinkTime is the mean user think time, chosen to match
	// RUBBoS-style browsing behaviour.
	thinkTime = time.Second
	// reconcilePeriod is how often the population is reconciled against
	// the target.
	reconcilePeriod = time.Second
)

// NewClosedLoop returns a stopped closed-loop generator; call Start.
func NewClosedLoop(k *sim.Kernel, cfg ClosedLoopConfig) (*ClosedLoop, error) {
	if k == nil {
		return nil, fmt.Errorf("workload: nil kernel")
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("workload: nil target function")
	}
	if cfg.Submit == nil {
		return nil, fmt.Errorf("workload: nil submit function")
	}
	cl := &ClosedLoop{
		k:      k,
		think:  dist.NewExponential(thinkTime),
		target: cfg.Target,
		submit: cfg.Submit,
		rng:    k.Split(0xc105ed),
	}
	cl.cycleFn = cl.userCycle
	cl.thinkFn = cl.rethink
	cl.ticker = k.Every(reconcilePeriod, cl.reconcile)
	return cl, nil
}

// Start spawns the initial user population and begins tracking the
// target. Idempotent.
func (cl *ClosedLoop) Start() {
	if cl.running {
		return
	}
	cl.running = true
	cl.reconcile()
}

// Stop retires every user; in-flight requests still complete. The
// population ticker is cancelled so the simulation can drain.
func (cl *ClosedLoop) Stop() {
	cl.running = false
	cl.retire = cl.users
	cl.ticker.Stop()
}

// Users returns the current live user count.
func (cl *ClosedLoop) Users() int { return cl.users }

// Issued returns the total number of requests issued so far.
func (cl *ClosedLoop) Issued() uint64 { return cl.issued }

// reconcile adjusts the population toward the target.
func (cl *ClosedLoop) reconcile() {
	if !cl.running {
		return
	}
	want := cl.target(cl.k.Now())
	if want < 0 {
		want = 0
	}
	have := cl.users - cl.retire
	switch {
	case want > have:
		for i := have; i < want; i++ {
			if cl.retire > 0 {
				cl.retire-- // cancel a pending retirement instead
				continue
			}
			cl.spawn()
		}
	case want < have:
		cl.retire += have - want
	}
}

// spawn starts one user mid-think so arrivals desynchronise.
func (cl *ClosedLoop) spawn() {
	cl.users++
	t := cl.think.Sample(cl.rng)
	if t > 0 {
		// Enter at a uniform point of the first think period.
		t = time.Duration(cl.rng.Int64N(int64(t) + 1))
	}
	cl.k.Schedule(t, cl.cycleFn)
}

// userCycle runs one think-request iteration for a user.
//
//soravet:hotpath TestClosedLoopCycleAllocFree once per simulated request: both callbacks are bound in NewClosedLoop, so the think-request cycle allocates nothing
func (cl *ClosedLoop) userCycle() {
	if cl.retire > 0 {
		cl.retire--
		cl.users--
		return
	}
	cl.issued++
	cl.submit(cl.thinkFn)
}

// rethink starts a user's next think period once its request completes.
func (cl *ClosedLoop) rethink() {
	cl.k.Schedule(cl.think.Sample(cl.rng), cl.cycleFn)
}
