package cluster

import (
	"fmt"
	"time"

	"sora/internal/sim"
)

// This file is the per-edge resilience layer: declarative call policies
// (attempt timeouts with deadline propagation, bounded retries with
// exponential backoff and deterministic jitter, per-edge circuit
// breaking, optional-call degradation) plus the fault-injection hooks
// the chaos engine drives (RPC latency inflation and loss). Policies
// and faults attach to caller→callee edges; edges with neither stay on
// the zero-overhead direct dispatch path in request.go.

// edgeKey identifies one caller→callee call edge.
type edgeKey struct {
	caller string
	callee string
}

func (k edgeKey) String() string { return k.caller + "->" + k.callee }

// CallPolicy configures resilience for every call over one edge. Every
// policy edge also gets exponential backoff between attempts and a
// circuit breaker, both on the fixed parameters below.
type CallPolicy struct {
	// Timeout bounds each attempt; the effective attempt deadline is
	// the minimum of now+Timeout and the caller's propagated deadline.
	// Zero means no per-attempt timeout.
	Timeout time.Duration
	// MaxAttempts is the total number of tries (first call included).
	// Zero and one both mean a single attempt.
	MaxAttempts int
	// Optional marks the call non-essential: when all attempts are
	// exhausted the caller completes with a degraded response instead
	// of failing its whole subtree.
	Optional bool
}

// Retry backoff and circuit-breaker parameters shared by every policy
// edge. The wait before the first retry is baseBackoff, doubling per
// subsequent retry up to maxBackoff, minus up to backoffJitter of itself
// drawn from the cluster's deterministic resilience stream. The breaker
// opens after breakerThreshold consecutive failures and admits one
// half-open probe once breakerCooldown of virtual time has passed; that
// probe's success closes it.
const (
	baseBackoff      = 5 * time.Millisecond
	maxBackoff       = 100 * time.Millisecond
	backoffJitter    = 0.2
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// EdgeFault is the chaos engine's handle on one edge: extra one-way
// latency per message and a per-call loss probability. The zero value
// clears the fault.
type EdgeFault struct {
	// ExtraDelay inflates every network hop over this edge.
	ExtraDelay time.Duration
	// LossProb is the probability a call is lost on the wire: the
	// callee never sees it, and the caller learns nothing until its
	// attempt deadline (or, with no timeout, a one-hop connection
	// reset).
	LossProb float64
}

func (f EdgeFault) empty() bool { return f.ExtraDelay <= 0 && f.LossProb <= 0 }

// breakerState is the circuit breaker's position.
type breakerState int8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// edgeState is the runtime state of one configured edge: its policy,
// its injected fault, the circuit breaker shared by every caller pod
// (matching a service-mesh sidecar's per-destination view) when it has
// a policy, and the window throttling its resilience.retry events.
type edgeState struct {
	key       edgeKey
	hasPolicy bool
	policy    CallPolicy
	fault     EdgeFault

	state       breakerState
	consecFails int
	openedAt    sim.Time
	probing     bool // a half-open probe is in flight

	retried      bool     // the retry window has opened (at the first retry)
	retryWinFrom sim.Time // start of the current retry window
	retryCount   int      // retries since the last resilience.retry event
}

// active reports whether calls over this edge need the policy path.
func (es *edgeState) active() bool { return es.hasPolicy || !es.fault.empty() }

// maxAttempts returns the policy's total try budget (minimum 1).
func (es *edgeState) maxAttempts() int {
	if es.policy.MaxAttempts > 1 {
		return es.policy.MaxAttempts
	}
	return 1
}

// backoffFor returns the wait before re-dispatching after the given
// 1-based attempt failed: exponential from baseBackoff, capped at
// maxBackoff, minus deterministic jitter.
func (c *Cluster) backoffFor(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d - time.Duration(backoffJitter*c.resRNG.Float64()*float64(d))
}

// transition moves the breaker and publishes the change.
func (es *edgeState) transition(c *Cluster, to breakerState) {
	from := es.state
	if from == to {
		return
	}
	es.state = to
	c.noteBreakerTransition(es.key, from, to)
}

// breakerAllow decides whether an attempt may leave the caller.
// isProbe marks the single attempt admitted through a half-open
// breaker; its result alone decides the half-open outcome. Fault-only
// edges have no breaker.
func (es *edgeState) breakerAllow(c *Cluster) (allowed, isProbe bool) {
	if !es.hasPolicy {
		return true, false
	}
	switch es.state {
	case breakerOpen:
		if c.k.Now()-es.openedAt >= sim.Time(breakerCooldown) {
			es.transition(c, breakerHalfOpen)
			es.probing = true
			return true, true
		}
		return false, false
	case breakerHalfOpen:
		if !es.probing {
			es.probing = true
			return true, true
		}
		return false, false
	default:
		return true, false
	}
}

// breakerRecord feeds one attempt outcome into the breaker. Results of
// attempts that were in flight when the breaker opened (stale,
// non-probe results in the open or half-open states) are ignored.
func (es *edgeState) breakerRecord(c *Cluster, isProbe, success bool) {
	if !es.hasPolicy {
		return
	}
	switch es.state {
	case breakerClosed:
		if success {
			es.consecFails = 0
			return
		}
		es.consecFails++
		if es.consecFails >= breakerThreshold {
			es.openedAt = c.k.Now()
			es.transition(c, breakerOpen)
		}
	case breakerHalfOpen:
		if !isProbe {
			return
		}
		es.probing = false
		if !success {
			es.openedAt = c.k.Now()
			es.transition(c, breakerOpen)
			return
		}
		es.consecFails = 0
		es.transition(c, breakerClosed)
	}
}

// edge returns the configured state for one caller→callee edge, or nil.
func (c *Cluster) edge(caller, callee string) *edgeState {
	if len(c.edges) == 0 {
		return nil
	}
	return c.edges[edgeKey{caller, callee}]
}

// ensureEdge returns the edge state, creating and registering it in
// deterministic creation order on first use.
func (c *Cluster) ensureEdge(caller, callee string) (*edgeState, error) {
	if _, err := c.Service(caller); err != nil {
		return nil, err
	}
	if _, err := c.Service(callee); err != nil {
		return nil, err
	}
	key := edgeKey{caller, callee}
	es, ok := c.edges[key]
	if !ok {
		es = &edgeState{key: key}
		c.edges[key] = es
		c.edgeOrder = append(c.edgeOrder, es)
	}
	return es, nil
}

// SetCallPolicy installs (or replaces) the resilience policy of one
// caller→callee edge; the edge's breaker starts closed.
func (c *Cluster) SetCallPolicy(caller, callee string, p CallPolicy) error {
	if p.Timeout < 0 || p.MaxAttempts < 0 {
		return fmt.Errorf("cluster: SetCallPolicy(%s->%s): negative field", caller, callee)
	}
	es, err := c.ensureEdge(caller, callee)
	if err != nil {
		return err
	}
	es.hasPolicy = true
	es.policy = p
	es.state = breakerClosed
	es.consecFails = 0
	es.probing = false
	return nil
}

// SetEdgeFault installs (or, with the zero value, clears) the injected
// fault on one caller→callee edge. Used by the chaos engine; calls in
// flight keep the fault parameters they were dispatched under.
func (c *Cluster) SetEdgeFault(caller, callee string, f EdgeFault) error {
	if f.LossProb < 0 || f.LossProb > 1 {
		return fmt.Errorf("cluster: SetEdgeFault(%s->%s): loss probability %g outside [0,1]", caller, callee, f.LossProb)
	}
	if f.ExtraDelay < 0 {
		return fmt.Errorf("cluster: SetEdgeFault(%s->%s): negative extra delay", caller, callee)
	}
	es, err := c.ensureEdge(caller, callee)
	if err != nil {
		return err
	}
	es.fault = f
	return nil
}
