// Package node models the control plane the paper's testbed takes for
// granted: a fixed fleet of worker nodes with finite cores, a
// bin-packing scheduler with pluggable placement policies, and a pod
// lifecycle with cold-start delay (scheduled → pulling → warming →
// ready). Everything runs on the simulation kernel's virtual clock, so
// a cluster with a control plane stays exactly as deterministic as one
// without: placement is a pure function of fleet state, and every
// lifecycle step is a kernel timer.
//
// The package deliberately knows nothing about services or requests —
// internal/cluster owns those and drives the fleet through Launch,
// Forget, CrashNode and DrainNode. The split keeps the scheduler
// testable in isolation and the dependency arrow pointing one way.
package node

import (
	"fmt"
	"time"

	"sora/internal/sim"
	"sora/internal/telemetry"
)

// Policy selects how the scheduler places a pod among feasible nodes.
type Policy int

// The placement policies. All of them consider only nodes that are up,
// schedulable and have enough free cores; ties break toward the lowest
// node index so placement is deterministic.
const (
	// PolicyFirstFit places on the lowest-indexed feasible node.
	PolicyFirstFit Policy = iota
	// PolicySpread places on the feasible node with the most free
	// cores — the kube-scheduler LeastAllocated default.
	PolicySpread
	// PolicyBinPack places on the feasible node with the least free
	// cores — MostAllocated consolidation.
	PolicyBinPack
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyFirstFit:
		return "firstfit"
	case PolicySpread:
		return "spread"
	case PolicyBinPack:
		return "binpack"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a placement policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "firstfit":
		return PolicyFirstFit, nil
	case "spread":
		return PolicySpread, nil
	case "binpack":
		return PolicyBinPack, nil
	default:
		return 0, fmt.Errorf("node: unknown scheduling policy %q (have firstfit, spread, binpack)", s)
	}
}

// LBPolicy selects how the cluster's dispatcher balances requests over
// a service's propagated endpoints. Defined here so one Config carries
// every control-plane knob.
type LBPolicy int

// The load-balancing policies.
const (
	// LBRoundRobin cycles through the endpoint list — kube-proxy's
	// iptables-mode behaviour and the pre-control-plane default.
	LBRoundRobin LBPolicy = iota
	// LBLeastLoaded picks the endpoint with the fewest admitted
	// requests (ties toward the earliest endpoint).
	LBLeastLoaded
	// LBPowerOfTwo samples two distinct endpoints from the cluster's
	// deterministic stream and picks the less loaded.
	LBPowerOfTwo
)

// String returns the policy's flag spelling.
func (p LBPolicy) String() string {
	switch p {
	case LBRoundRobin:
		return "rr"
	case LBLeastLoaded:
		return "least"
	case LBPowerOfTwo:
		return "p2c"
	default:
		return fmt.Sprintf("LBPolicy(%d)", int(p))
	}
}

// ParseLB parses a load-balancer flag value.
func ParseLB(s string) (LBPolicy, error) {
	switch s {
	case "rr":
		return LBRoundRobin, nil
	case "least":
		return LBLeastLoaded, nil
	case "p2c":
		return LBPowerOfTwo, nil
	default:
		return 0, fmt.Errorf("node: unknown load balancer %q (have rr, least, p2c)", s)
	}
}

// Config sizes the fleet and the control-plane latencies. The zero
// value is invalid; a cluster built without a Config has no control
// plane at all (instant placement, single-endpoint dispatch).
type Config struct {
	// Nodes is the worker-node count; NodeCores the per-node capacity
	// pods reserve against (a pod reserves its service's per-pod core
	// limit at launch time).
	Nodes     int
	NodeCores float64

	// Policy is the scheduler's placement policy.
	Policy Policy

	// SchedDelay is the scheduler decision latency per pod; PullDelay
	// the image pull; WarmDelay the application boot. A pod serves no
	// traffic until all three have elapsed — and, in the cluster layer,
	// until the endpoint view catches up one EndpointLag later.
	SchedDelay time.Duration
	PullDelay  time.Duration
	WarmDelay  time.Duration

	// EndpointLag is how long a membership change (pod ready, crashed,
	// draining, terminated) takes to reach the routing layer.
	EndpointLag time.Duration

	// LB is the replica-level load-balancing policy.
	LB LBPolicy
}

// SplitColdStart distributes one total cold-start budget over the three
// lifecycle delays the way the CLIs expose it as a single -coldstart
// flag: 10% scheduler decision, 40% image pull, 50% warmup.
func SplitColdStart(total time.Duration) (sched, pull, warm time.Duration) {
	sched = total / 10
	pull = total * 4 / 10
	return sched, pull, total - sched - pull
}

// validate checks the fleet dimensions.
func (cfg Config) validate() error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("node: need at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.NodeCores <= 0 {
		return fmt.Errorf("node: node capacity must be positive, got %g cores", cfg.NodeCores)
	}
	if cfg.SchedDelay < 0 || cfg.PullDelay < 0 || cfg.WarmDelay < 0 || cfg.EndpointLag < 0 {
		return fmt.Errorf("node: negative control-plane delay")
	}
	return nil
}

// State is a pod's lifecycle phase.
type State int

// The pod lifecycle. Pending pods are waiting for the scheduler (either
// its decision latency or free capacity); the cold start proper is
// Scheduled → Pulling → Warming; Ready pods serve traffic (subject to
// endpoint propagation in the cluster layer); Dead pods were crashed,
// evicted or forgotten and never come back — replacement is a fresh pod.
const (
	StatePending State = iota
	StateScheduled
	StatePulling
	StateWarming
	StateReady
	StateDead
)

// String returns the state's lowercase name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateScheduled:
		return "scheduled"
	case StatePulling:
		return "pulling"
	case StateWarming:
		return "warming"
	case StateReady:
		return "ready"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Pod is one placed (or placement-pending) workload instance.
type Pod struct {
	fleet   *Fleet
	id      string
	service string
	cores   float64
	n       *Node // nil until scheduled
	state   State
	// timer is the pending lifecycle timer (pooled; the handle is dead
	// once its callback starts or Cancel returns, so every callback
	// nils it first and every kill path cancels-then-nils).
	timer   *sim.Timer
	onReady func(*Pod)
}

// NodeName returns the resident node's name, or "-" while unscheduled.
func (p *Pod) NodeName() string {
	if p.n == nil {
		return "-"
	}
	return p.n.id
}

// Node is one worker machine.
type Node struct {
	idx      int
	id       string
	cores    float64
	used     float64
	pods     []*Pod
	down     bool
	cordoned bool
}

func (n *Node) free() float64 { return n.cores - n.used }

// schedulable reports whether the scheduler may place onto n.
func (n *Node) schedulable() bool { return !n.down && !n.cordoned }

// Fleet is the worker-node pool plus the scheduler state.
type Fleet struct {
	k   *sim.Kernel
	cfg Config
	tel *telemetry.Recorder

	nodes []*Node
	// pending holds pods the scheduler could not place, FIFO. Every
	// capacity change (pod exit, node restore, uncordon) retries the
	// whole queue in order, so placement stays deterministic.
	pending []*Pod
}

// NewFleet builds the node pool. The telemetry recorder may be nil.
func NewFleet(k *sim.Kernel, cfg Config, tel *telemetry.Recorder) (*Fleet, error) {
	if k == nil {
		return nil, fmt.Errorf("node: nil kernel")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fleet{k: k, cfg: cfg, tel: tel}
	for i := 0; i < cfg.Nodes; i++ {
		f.nodes = append(f.nodes, &Node{
			idx:   i,
			id:    fmt.Sprintf("node-%d", i),
			cores: cfg.NodeCores,
		})
	}
	return f, nil
}

// NodeCount returns the fleet size.
func (f *Fleet) NodeCount() int { return len(f.nodes) }

// NodeName returns node i's name.
func (f *Fleet) NodeName(i int) string { return f.nodes[i].id }

// NodeDown reports whether node i is crashed.
func (f *Fleet) NodeDown(i int) bool { return f.nodes[i].down }

// NodeCordoned reports whether node i is cordoned (draining or drained).
func (f *Fleet) NodeCordoned(i int) bool { return f.nodes[i].cordoned }

// NodeLoad returns node i's reserved cores and resident pod count.
//
//soravet:allow deadcode (b) cross-package observer: cluster and fault tests observe per-node placement through it
func (f *Fleet) NodeLoad(i int) (used float64, pods int) {
	n := f.nodes[i]
	return n.used, len(n.pods)
}

// PendingPods returns how many pods are waiting for capacity.
func (f *Fleet) PendingPods() int { return len(f.pending) }

// Launch submits one pod to the scheduler. After the scheduler decision
// latency it is placed (or queued if nothing fits), then cold-starts on
// its node; onReady fires when it reaches StateReady. The returned pod
// is live immediately for bookkeeping (Forget cancels it at any stage).
func (f *Fleet) Launch(service, id string, cores float64, onReady func(*Pod)) *Pod {
	p := &Pod{fleet: f, id: id, service: service, cores: cores, onReady: onReady}
	p.timer = f.k.Schedule(f.cfg.SchedDelay, func() {
		p.timer = nil
		f.place(p)
	})
	return p
}

// place runs one scheduling attempt; pods that fit nowhere join the
// pending queue.
func (f *Fleet) place(p *Pod) {
	if p.state == StateDead {
		return
	}
	n := f.choose(p.cores)
	if n == nil {
		f.pending = append(f.pending, p)
		return
	}
	f.bind(p, n)
}

// choose picks the node for one pod under the configured policy, or nil
// when no schedulable node has capacity. The float tolerance absorbs
// accumulated reservation arithmetic error.
func (f *Fleet) choose(cores float64) *Node {
	const eps = 1e-9
	var best *Node
	for _, n := range f.nodes {
		if !n.schedulable() || n.free()+eps < cores {
			continue
		}
		switch f.cfg.Policy {
		case PolicyFirstFit:
			return n
		case PolicySpread:
			if best == nil || n.free() > best.free()+eps {
				best = n
			}
		case PolicyBinPack:
			if best == nil || n.free() < best.free()-eps {
				best = n
			}
		}
	}
	return best
}

// bind reserves capacity and starts the cold start.
func (f *Fleet) bind(p *Pod, n *Node) {
	p.n = n
	n.used += p.cores
	n.pods = append(n.pods, p)
	p.state = StateScheduled
	if f.tel != nil {
		f.tel.Publish(f.k.Now(), "node.schedule",
			telemetry.String("pod", p.id),
			telemetry.String("service", p.service),
			telemetry.String("node", n.id),
			telemetry.Float("cores", p.cores))
	}
	p.timer = f.k.Schedule(f.cfg.PullDelay, func() {
		p.timer = nil
		if p.state != StateScheduled {
			return
		}
		p.state = StatePulling
		p.timer = f.k.Schedule(f.cfg.WarmDelay, func() {
			p.timer = nil
			if p.state != StatePulling {
				return
			}
			p.state = StateWarming
			// Warming → Ready is instantaneous once the boot budget has
			// elapsed; the two states exist so observers can distinguish
			// "binary arriving" from "process booting" mid-flight.
			p.state = StateReady
			if f.tel != nil {
				f.tel.Publish(f.k.Now(), "node.ready",
					telemetry.String("pod", p.id),
					telemetry.String("service", p.service),
					telemetry.String("node", n.id))
			}
			if p.onReady != nil {
				p.onReady(p)
			}
		})
	})
}

// kill finalizes a pod without releasing node capacity (the caller
// decides whether capacity comes back).
func (p *Pod) kill() {
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
	p.state = StateDead
	p.onReady = nil
}

// Forget removes a pod from the fleet: its reservation is released (or
// its pending entry dropped) and freed capacity is re-offered to the
// pending queue. The cluster calls this when a drained pod is reaped or
// an unplaced pod's instance is removed.
func (f *Fleet) Forget(p *Pod) {
	if p == nil || p.state == StateDead {
		return
	}
	if n := p.n; n != nil {
		n.used -= p.cores
		n.pods = removePod(n.pods, p)
		p.n = nil
	} else {
		f.pending = removePod(f.pending, p)
	}
	p.kill()
	f.retryPending()
}

// CrashNode fails node i: every resident pod dies with it (whatever its
// lifecycle stage) and the node stops accepting placements until
// RestoreNode. The dead pods are returned so the cluster can fail their
// instances and launch replacements.
func (f *Fleet) CrashNode(i int) []*Pod {
	n := f.nodes[i]
	if n.down {
		return nil
	}
	n.down = true
	victims := n.pods
	n.pods = nil
	n.used = 0
	for _, p := range victims {
		p.n = nil
		p.kill()
	}
	if f.tel != nil {
		f.tel.Publish(f.k.Now(), "node.crash",
			telemetry.String("node", n.id),
			telemetry.Int("pods", len(victims)))
	}
	return victims
}

// RestoreNode brings a crashed node back empty; pending pods may now
// place onto it.
func (f *Fleet) RestoreNode(i int) {
	n := f.nodes[i]
	if !n.down {
		return
	}
	n.down = false
	f.retryPending()
}

// DrainNode cordons node i and returns its resident pods. The pods stay
// placed — the cluster evicts them gracefully (drain, then Forget once
// idle) — but the scheduler places nothing new on the node until
// UncordonNode.
func (f *Fleet) DrainNode(i int) []*Pod {
	n := f.nodes[i]
	if n.down || n.cordoned {
		return nil
	}
	n.cordoned = true
	out := make([]*Pod, len(n.pods))
	copy(out, n.pods)
	if f.tel != nil {
		f.tel.Publish(f.k.Now(), "node.drain",
			telemetry.String("node", n.id),
			telemetry.Int("pods", len(out)))
	}
	return out
}

// UncordonNode reopens a drained node for scheduling.
func (f *Fleet) UncordonNode(i int) {
	n := f.nodes[i]
	if !n.cordoned {
		return
	}
	n.cordoned = false
	f.retryPending()
}

// retryPending re-runs the scheduler over the pending queue in FIFO
// order after any capacity change. Pods that still fit nowhere keep
// their position.
func (f *Fleet) retryPending() {
	if len(f.pending) == 0 {
		return
	}
	kept := f.pending[:0]
	for _, p := range f.pending {
		if p.state == StateDead {
			continue
		}
		if n := f.choose(p.cores); n != nil {
			f.bind(p, n)
			continue
		}
		kept = append(kept, p)
	}
	for i := len(kept); i < len(f.pending); i++ {
		f.pending[i] = nil
	}
	f.pending = kept
}

func removePod(pods []*Pod, p *Pod) []*Pod {
	kept := pods[:0]
	for _, q := range pods {
		if q != p {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(pods); i++ {
		pods[i] = nil
	}
	return kept
}
