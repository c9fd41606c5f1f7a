package cluster

import (
	"fmt"
	"slices"

	"sora/internal/metrics"
	"sora/internal/node"
	"sora/internal/psq"
)

// Service is a logical microservice with one or more pod instances.
type Service struct {
	c    *Cluster
	id   int32 // position in the App's service list, and the service's trace name id
	name string
	spec ServiceSpec

	instances []*Instance
	nextID    int // monotonic pod id counter for unique names
	rr        int // round-robin cursor over endpoints

	// spanLog records the service's visit completions (span departure,
	// span duration) — the per-service MongoDB store of the paper — once
	// a reader has declared it through Cluster.RecordSpans; nil until
	// then, and the visits of an undeclared service are not recorded.
	spanLog *declaredLog

	// flight, when the cluster's flight recorder is armed, accumulates
	// this service's window counters and latency sketch (see flight.go).
	// Nil costs one pointer test per arrival/completion.
	flight *flightTrack

	// endpoints is the routing view: the instances pick may choose, in
	// creation order. Without a control plane it always equals the
	// ready, live, non-draining instances; with one it trails that truth
	// by the endpoint-propagation lag (see ctrlplane.go). epStale marks a
	// membership change swallowed by a propagation stall, applied when
	// the stall lifts.
	endpoints []*Instance
	epStale   bool
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// SpanLog returns the service's visit completion log. It panics unless
// the log was declared through Cluster.RecordSpans: an empty log would
// read as a service that served nothing.
func (s *Service) SpanLog() *metrics.CompletionLog {
	if s.spanLog == nil {
		panic(fmt.Sprintf("cluster: span log of service %q read but never declared (call Cluster.RecordSpans before the run)", s.name))
	}
	return &s.spanLog.log
}

// Replicas returns the number of non-draining pods.
func (s *Service) Replicas() int {
	n := 0
	for _, in := range s.instances {
		if !in.draining {
			n++
		}
	}
	return n
}

// Instances returns all pods including draining ones.
func (s *Service) Instances() []*Instance { return slices.Clone(s.instances) }

// Endpoints returns the routing view: the pods the load balancer
// currently routes to. With a control plane it can trail the
// membership truth by the endpoint lag; without one it is exactly the
// ready, live, non-draining pods.
//
//soravet:allow deadcode (b) cross-package observer: fault tests observe the lagged routing view through it
func (s *Service) Endpoints() []*Instance { return slices.Clone(s.endpoints) }

func (s *Service) addInstance() *Instance {
	in := newInstance(s, fmt.Sprintf("%s-%d", s.name, s.nextID))
	s.nextID++
	s.instances = append(s.instances, in)
	if cp := s.c.cp; cp != nil {
		// Control-plane mode: the pod must be scheduled onto a node and
		// cold-start before it is ready, and its readiness must propagate
		// before it receives traffic.
		cp.launch(in)
	} else {
		s.refreshEndpoints()
	}
	return in
}

// noteChange brings a membership change (crash, restore, drain flips,
// removal) to the endpoint view: at once without a control plane —
// no timer, no event — and one propagation lag later with one.
func (s *Service) noteChange() {
	if cp := s.c.cp; cp != nil {
		cp.noteChange(s)
		return
	}
	s.refreshEndpoints()
}

// refreshEndpoints recomputes the endpoint view from membership truth
// and reports whether it changed.
func (s *Service) refreshEndpoints() bool {
	eps := make([]*Instance, 0, len(s.instances))
	for _, in := range s.instances {
		if in.ready && !in.down && !in.draining {
			eps = append(eps, in)
		}
	}
	if slices.Equal(eps, s.endpoints) {
		return false
	}
	s.endpoints = eps
	return true
}

// removeInstance permanently deletes one instance (node-crash victims
// in control-plane mode; replacement is a fresh pod, never a Restore).
func (s *Service) removeInstance(in *Instance) {
	s.instances = slices.DeleteFunc(s.instances, func(x *Instance) bool { return x == in })
}

// pick is the replica-level load balancer: it chooses among the
// service's endpoint view with the cluster's policy (node.Config.LB;
// round-robin without a control plane). A lagged view may still include
// pods that just crashed or began draining (they refuse, and the
// caller's resilience policy takes over) and not yet include pods that
// just became ready. An empty view returns nil and the visit is refused.
func (s *Service) pick() *Instance {
	eps := s.endpoints
	n := len(eps)
	if n == 0 {
		return nil
	}
	switch s.c.lb {
	case node.LBLeastLoaded:
		best := eps[0]
		for _, in := range eps[1:] {
			if in.active < best.active {
				best = in
			}
		}
		return best
	case node.LBPowerOfTwo:
		if n == 1 {
			return eps[0]
		}
		i := s.c.lbRNG.IntN(n)
		j := s.c.lbRNG.IntN(n - 1)
		if j >= i {
			j++
		}
		a, b := eps[i], eps[j]
		if b.active < a.active {
			return b
		}
		return a
	default: // node.LBRoundRobin
		in := eps[s.rr%n]
		s.rr++
		return in
	}
}

// reap removes fully drained instances.
func (s *Service) reap() {
	s.instances = slices.DeleteFunc(s.instances, func(in *Instance) bool {
		if !in.draining || !in.idle() {
			return false
		}
		if cp := s.c.cp; cp != nil {
			cp.terminate(in)
		}
		return true
	})
}

// Concurrency returns the number of requests currently inside the service
// (admitted past the thread pool, including those blocked downstream),
// summed across pods.
func (s *Service) Concurrency() int {
	n := 0
	for _, in := range s.instances {
		n += in.active
	}
	return n
}

// QueueLength returns the total admission-queue length across pods.
func (s *Service) QueueLength() int {
	n := 0
	for _, in := range s.instances {
		n += len(in.queue)
	}
	return n
}

// DBConnsInUse returns the number of busy downstream-connection slots
// across pods.
func (s *Service) DBConnsInUse() int {
	n := 0
	for _, in := range s.instances {
		n += in.db.active
	}
	return n
}

// ClientConnsInUse returns the busy outstanding-RPC slots towards target
// across pods.
func (s *Service) ClientConnsInUse(target string) int {
	t, ok := s.c.services[target]
	if !ok {
		return 0
	}
	n := 0
	for _, in := range s.instances {
		if p := in.clientPool(t.id); p != nil {
			n += p.active
		}
	}
	return n
}

// CumulativeBusy returns total busy core-seconds (including overhead)
// across pods — the quantity a cadvisor-style monitor reports.
func (s *Service) CumulativeBusy() float64 {
	var w float64
	for _, in := range s.instances {
		w += in.cpu.CumulativeBusy()
	}
	return w
}

// CumulativeCapacity returns total configured core-seconds across pods.
func (s *Service) CumulativeCapacity() float64 {
	var w float64
	for _, in := range s.instances {
		w += in.cpu.CumulativeCapacity()
	}
	return w
}

// UtilMeter reads a service's windowed CPU utilization the cadvisor way:
// the change in cumulative busy core-seconds over the change in
// cumulative capacity since its previous read. It is the one windowed
// utilization reader; every read integrates each pod's PS server up to
// now, which splits the integration, so the holders of meters are the
// observers that perturb a run. A meter made before the run reads at
// t = 0, where nothing has been integrated yet.
type UtilMeter struct {
	svc            *Service
	busy, capacity float64 // the cumulative marks at the previous read
}

// NewUtilMeter returns a meter whose marks are svc's counters now.
func NewUtilMeter(svc *Service) *UtilMeter {
	return &UtilMeter{svc: svc, busy: svc.CumulativeBusy(), capacity: svc.CumulativeCapacity()}
}

// Next returns the utilization since the previous read and whether any
// capacity elapsed (0 and false when none did), then moves the marks.
func (m *UtilMeter) Next() (util float64, ok bool) {
	busy, capacity := m.svc.CumulativeBusy(), m.svc.CumulativeCapacity()
	db, dc := busy-m.busy, capacity-m.capacity
	m.busy, m.capacity = busy, capacity
	if dc <= 0 {
		return 0, false
	}
	return db / dc, true
}

// Cores returns the per-pod CPU limit.
func (s *Service) Cores() float64 { return s.spec.Cores }

// TotalCores returns the CPU limit summed over non-draining pods.
func (s *Service) TotalCores() float64 {
	var total float64
	for _, in := range s.instances {
		if !in.draining {
			total += in.cpu.Cores()
		}
	}
	return total
}

// Instance is one pod of a service.
type Instance struct {
	svc  *Service
	id   string
	cpu  *psq.Server
	meta instanceMeta
	// nameID is the pod's instance id in the cluster's trace name
	// table, stamped on the span of every visit it serves.
	nameID int32

	// Thread pool: bounded by cap (0 = unlimited); queue holds visits
	// waiting for admission.
	threadCap int
	active    int
	queue     []*visit

	// db limits concurrent downstream calls from this pod.
	db pool
	// client limits outstanding RPCs per downstream service: indexed by
	// the target's service id, nil where the target has no pool. Nil
	// when this pod has no client pool at all.
	client []*pool

	draining bool

	// Control-plane state. ready gates serving: always true without a
	// control plane; with one it flips true when the pod finishes its
	// cold start (requests routed to a not-yet-ready pod via a stale
	// endpoint view are refused). pod is the fleet record backing this
	// instance (nil without a control plane).
	ready bool
	pod   *node.Pod

	// Fault-injection state. down marks a crashed pod: it accepts no
	// new work, and responses of visits admitted before the crash are
	// lost (epoch mismatch at finish). degrade, when in (0,1), scales
	// the pod's effective CPU limit (a noisy-neighbour / failing node).
	down    bool
	epoch   uint64
	degrade float64
}

type instanceMeta struct {
	admitted  uint64
	completed uint64
}

func newInstance(s *Service, id string) *Instance {
	alpha := s.spec.Overhead
	var opts []psq.Option
	if alpha > 0 {
		opts = append(opts, psq.WithOverhead(alpha))
	}
	in := &Instance{
		svc:       s,
		id:        id,
		cpu:       psq.New(s.c.k, s.spec.Cores, opts...),
		nameID:    s.c.names.AddInstance(id),
		threadCap: s.spec.ThreadPool,
		db:        pool{cap: s.spec.DBPool},
		ready:     true, // control-plane launch flips this off until the cold start completes
	}
	for target, size := range s.spec.ClientPools {
		in.setClientPool(s.c.services[target].id, size)
	}
	return in
}

// clientPool returns the pod's client pool towards the service with id
// target, or nil when it has none.
func (in *Instance) clientPool(target int32) *pool {
	if int(target) < len(in.client) {
		return in.client[target]
	}
	return nil
}

// setClientPool resizes the pod's client pool towards the service with
// id target, creating it if the pod has none yet.
func (in *Instance) setClientPool(target int32, size int) {
	if int(target) >= len(in.client) {
		in.client = append(in.client, make([]*pool, int(target)+1-len(in.client))...)
	}
	p := in.client[target]
	if p == nil {
		p = &pool{}
		in.client[target] = p
	}
	p.setCap(size)
}

// ID returns the pod name (e.g. "cart-0").
func (in *Instance) ID() string { return in.id }

// Draining reports whether the pod is being decommissioned.
func (in *Instance) Draining() bool { return in.draining }

// Ready reports whether the pod may serve traffic: false only while a
// control-plane pod cold-starts, so always true without a control plane.
//
//soravet:allow deadcode (b) cross-package observer: fault tests observe pod readiness through it
func (in *Instance) Ready() bool { return in.ready }

func (in *Instance) idle() bool {
	return in.active == 0 && len(in.queue) == 0
}

// hasThreadCapacity reports whether a new request can be admitted now.
func (in *Instance) hasThreadCapacity() bool {
	return in.threadCap == 0 || in.active < in.threadCap
}

// Crash marks the pod failed, as by a kill -9 or node loss: everything
// waiting for admission is refused (connection reset), new arrivals are
// refused, and visits already in flight keep executing but their
// responses are lost — finish sees the epoch mismatch and fails them.
// The simulated work itself is not unwound; this models the callee-side
// effort a crash wastes without revoking PS-server state.
func (in *Instance) Crash() {
	if in.down {
		return
	}
	in.down = true
	in.epoch++
	q := in.queue
	in.queue = nil
	for _, v := range q {
		v.refuse()
	}
	// Readiness-probe failure: the crashed pod leaves the endpoint view
	// (one propagation lag later with a control plane; until then the
	// balancer keeps routing to it and requests are refused).
	in.svc.noteChange()
}

// Restore brings a crashed pod back into service with empty queues and
// a fresh epoch (already bumped by Crash).
func (in *Instance) Restore() {
	if !in.down {
		return
	}
	in.down = false
	in.svc.noteChange()
}

// Down reports whether the pod is crashed.
func (in *Instance) Down() bool { return in.down }

// SetDegrade sets the pod's CPU-degradation factor: effective cores =
// spec cores × f for f in (0,1). Values outside (0,1) clear the
// degradation.
func (in *Instance) SetDegrade(f float64) {
	if f <= 0 || f >= 1 {
		in.degrade = 0
	} else {
		in.degrade = f
	}
	in.applyCores()
}

// applyCores pushes the service's configured per-pod core limit through
// this pod's degradation factor into the PS server.
func (in *Instance) applyCores() {
	cores := in.svc.spec.Cores
	if in.degrade > 0 {
		cores *= in.degrade
	}
	in.cpu.SetCores(cores)
}

// enqueue either admits the visit or queues it for a thread slot. Down
// pods refuse; so do pods still cold-starting (a stale endpoint view
// routed the request before the pod was ready).
func (in *Instance) enqueue(v *visit) {
	if in.down || !in.ready {
		v.refuse()
		return
	}
	if in.hasThreadCapacity() && len(in.queue) == 0 {
		in.admit(v)
		return
	}
	in.queue = append(in.queue, v) //soravet:allow hotpath admission queue append reuses capacity at steady state
}

// admit moves the visit into service.
func (in *Instance) admit(v *visit) {
	in.active++
	in.meta.admitted++
	v.epoch = in.epoch
	v.begin()
}

// visitDone releases the thread slot and admits the next queued visit.
func (in *Instance) visitDone() {
	in.active--
	in.meta.completed++
	for len(in.queue) > 0 && in.hasThreadCapacity() {
		in.admit(popFront(&in.queue))
	}
	if in.draining && in.idle() {
		in.svc.reap()
	}
}

// setThreadCap applies a new thread pool size, admitting queued visits if
// the pool grew.
func (in *Instance) setThreadCap(n int) {
	in.threadCap = n
	for len(in.queue) > 0 && in.hasThreadCapacity() {
		in.admit(popFront(&in.queue))
	}
}

// pool is a counted-slot resource with a FIFO wait list of continuations.
// cap == 0 means unlimited.
type pool struct {
	cap     int
	active  int
	waiting []func()
}

func (p *pool) acquire(cont func()) {
	if p.cap == 0 || p.active < p.cap {
		p.active++
		cont()
		return
	}
	p.waiting = append(p.waiting, cont) //soravet:allow hotpath wait-list append reuses capacity at steady state; continuations are bound call-record methods, so no closure is allocated
}

func (p *pool) release() {
	p.active--
	if len(p.waiting) > 0 && (p.cap == 0 || p.active < p.cap) {
		next := popFront(&p.waiting)
		p.active++
		next()
	}
}

// setCap resizes the pool, draining waiters into freed slots.
func (p *pool) setCap(n int) {
	p.cap = n
	for len(p.waiting) > 0 && (p.cap == 0 || p.active < p.cap) {
		next := popFront(&p.waiting)
		p.active++
		next()
	}
}

// popFront removes and returns the first element of the FIFO *q. The
// rest shift down in order, and the vacated last slot is cleared so the
// backing array, whose capacity the queue keeps, holds no stale
// reference.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	copy(s, s[1:])
	var zero T
	s[len(s)-1] = zero
	*q = s[:len(s)-1]
	return v
}

// releaseSlots frees one downstream call's connection slots: the
// per-target client slot (nil when the edge has none), then the pod's
// downstream-connection slot.
func (in *Instance) releaseSlots(cp *pool) {
	if cp != nil {
		cp.release()
	}
	in.db.release()
}

// Stats reports per-instance lifetime counters.
type Stats struct {
	Admitted  uint64
	Completed uint64
}

// Stats returns the pod's lifetime counters.
func (in *Instance) Stats() Stats {
	return Stats{
		Admitted:  in.meta.admitted,
		Completed: in.meta.completed,
	}
}
