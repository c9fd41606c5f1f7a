// Package cluster implements the simulated microservice cluster that
// substitutes for the paper's Kubernetes testbed: services with replicated
// instances (pods), processor-sharing CPUs with per-pod core limits,
// thread pools, database connection pools and client-side request
// connection pools, a request execution engine driven by call trees, and
// runtime reconfiguration APIs for both hardware (cores, replicas) and
// soft resources (pool sizes).
//
// Requests are described by RequestType execution trees: each node is one
// service visit with request-side CPU work, downstream calls (sequential
// or parallel) and response-side CPU work. Executing a request produces a
// trace.Trace span tree with the same timestamps the paper's Jaeger
// instrumentation records, feeding the warehouse the SCG model reads.
package cluster

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sora/internal/dist"
	"sora/internal/metrics"
	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/trace"
)

// CallNode is one service visit in a request's execution tree.
type CallNode struct {
	// Service is the logical service name; it must exist in the App.
	Service string
	// ReqWork is the CPU demand before downstream calls are issued
	// (request-side processing). Nil means no work.
	ReqWork dist.Distribution
	// ResWork is the CPU demand after all downstream calls return
	// (response-side processing). Nil means no work.
	ResWork dist.Distribution
	// Children are the downstream calls this visit makes.
	Children []*CallNode
	// Parallel dispatches all children concurrently; otherwise children
	// are called one after another in order.
	Parallel bool
}

// RequestType names one kind of user request and its execution tree.
type RequestType struct {
	Name string
	Root *CallNode
}

// WeightedRequest pairs a request type with its share of the workload mix.
type WeightedRequest struct {
	Type   *RequestType
	Weight float64
}

// PoolKind identifies which soft resource of a service a reference or
// reconfiguration targets.
type PoolKind int

// Soft resource kinds.
const (
	// PoolThreads is a server-side worker pool: it bounds the number of
	// requests concurrently inside the service (processing or blocked on
	// downstream calls); excess requests queue for admission. This is the
	// SpringBoot/Tomcat thread-pool model (Cart).
	PoolThreads PoolKind = iota + 1
	// PoolDBConns bounds the number of concurrent downstream calls a
	// service instance may have outstanding, while request admission
	// itself is unbounded (asynchronous handler model — Golang Catalogue
	// with its database/sql connection pool).
	PoolDBConns
	// PoolClientConns bounds the number of outstanding RPCs from this
	// service to one specific downstream service (the Thrift ClientPool
	// model — Home-Timeline's connections to Post Storage).
	PoolClientConns
)

// String returns the kind name.
func (k PoolKind) String() string {
	switch k {
	case PoolThreads:
		return "threads"
	case PoolDBConns:
		return "db-conns"
	case PoolClientConns:
		return "client-conns"
	default:
		return fmt.Sprintf("PoolKind(%d)", int(k))
	}
}

// ResourceRef identifies one soft resource instance in the cluster.
type ResourceRef struct {
	Service string
	Kind    PoolKind
	// Target is the downstream service for PoolClientConns; empty
	// otherwise.
	Target string
}

// String formats the reference for logs and experiment output.
func (r ResourceRef) String() string {
	if r.Kind == PoolClientConns {
		return fmt.Sprintf("%s->%s %s", r.Service, r.Target, r.Kind)
	}
	return fmt.Sprintf("%s %s", r.Service, r.Kind)
}

// ServiceSpec declares one service's static configuration.
type ServiceSpec struct {
	Name     string
	Replicas int     // initial pod count; minimum 1
	Cores    float64 // per-pod CPU limit
	// Overhead is the multithreading-efficiency penalty alpha for the
	// pod CPU model; zero selects psq.DefaultOverhead.
	Overhead float64
	// ThreadPool bounds concurrent in-service requests per pod; zero
	// means unlimited (asynchronous handler model).
	ThreadPool int
	// DBPool bounds concurrent downstream calls per pod; zero means
	// unlimited.
	DBPool int
	// ClientPools bounds outstanding RPCs per pod per downstream service;
	// services absent from the map are unlimited.
	ClientPools map[string]int
}

// App bundles the services and workload mix of one benchmark application
// (Sock Shop, Social Network, or a user-defined topology).
type App struct {
	Name     string
	Services []ServiceSpec
	Mix      []WeightedRequest
}

// Validate checks the service declarations. The mix is checked when a
// cluster compiles it against the services it deploys (New, SetMix).
func (a App) Validate() error {
	if len(a.Services) == 0 {
		return fmt.Errorf("cluster: app %q has no services", a.Name)
	}
	names := make(map[string]bool, len(a.Services))
	for _, s := range a.Services {
		if s.Name == "" {
			return fmt.Errorf("cluster: app %q has a service with an empty name", a.Name)
		}
		if names[s.Name] {
			return fmt.Errorf("cluster: app %q declares service %q twice", a.Name, s.Name)
		}
		names[s.Name] = true
		if s.Replicas < 1 {
			return fmt.Errorf("cluster: service %q needs at least 1 replica", s.Name)
		}
		if s.Cores <= 0 {
			return fmt.Errorf("cluster: service %q needs a positive core limit", s.Name)
		}
		if s.ThreadPool < 0 || s.DBPool < 0 {
			return fmt.Errorf("cluster: service %q has a negative pool size", s.Name)
		}
		for target, size := range s.ClientPools {
			if size < 0 {
				return fmt.Errorf("cluster: service %q client pool to %q is negative", s.Name, target)
			}
		}
	}
	for _, s := range a.Services {
		for target := range s.ClientPools {
			if !names[target] {
				return fmt.Errorf("cluster: service %q has a client pool to unknown service %q", s.Name, target)
			}
		}
	}
	return nil
}

// Options configures a Cluster beyond the App definition.
//
// Messages between services take no time, the paper's "network latency
// is negligible" assumption; only a fault's ExtraDelay delays one (see
// withEdgeDelay). Completion and trace history, once declared, are kept
// only as far back as their readers declared they read (see
// Cluster.RecordCompletions, Cluster.RecordSpans and
// Cluster.RetainTraces).
type Options struct {
	// Telemetry, when non-nil, receives structured events (reconfig,
	// retries, breaker transitions) and end-of-run counters from this
	// cluster. Nil disables telemetry at zero cost (every publish site
	// is a nil check). A recorder declares trace retention with a reach
	// of trace.DefaultRetention: the end-of-run flush samples spans
	// from the whole warehouse.
	Telemetry *telemetry.Recorder
	// ControlPlane, when non-nil, puts the deployment on a simulated
	// multi-node control plane (see internal/node and ctrlplane.go):
	// pods are scheduled onto finite worker nodes, cold-start before
	// serving, and reach the endpoint views one propagation lag after
	// each membership change; Config.LB picks the balancer. Nil places
	// pods instantly, makes them ready at once and applies membership
	// changes to the views synchronously with round-robin balancing —
	// byte-identical behaviour to clusters predating the control plane.
	ControlPlane *node.Config
}

// Cluster is a running simulated deployment of an App. It stores the
// traces it completes in a warehouse, and their end-to-end completions
// in a log, only once a reader has declared one (RetainTraces,
// RetainScans, RecordCompletions): a run nothing reads them from keeps
// none.
type Cluster struct {
	k        *sim.Kernel
	app      App
	services map[string]*Service
	svcs     []*Service // in App order: a service's id is its position

	// warehouse is nil until a reader declares it; unretained records
	// that a trace completed before it, so that a late declaration
	// fails.
	warehouse  *trace.Warehouse
	unretained bool
	// e2eLog is nil until a reader declares it; unrecorded records that
	// a request completed before it, so that a late declaration fails.
	e2eLog     *declaredLog
	unrecorded bool

	// plans holds every request type this cluster has compiled, in
	// compile order (see plan.go), and mix the current workload mix
	// over them.
	plans    []*planNode
	rng      *rand.Rand
	mix      []mixEntry
	mixTotal float64

	nextTraceID trace.ID
	onComplete  []func(*trace.Trace)

	// Request-path scratch pools. visitFree recycles visit structs (the
	// per-span execution state) and spanFree the spans of settled
	// traces, each with its child list's capacity, once their traces'
	// OnComplete callbacks have returned (see rootCall.done).
	visitFree []*visit
	rootFree  []*rootCall
	spanFree  []*trace.Span

	// names is the table the records of every trace this cluster
	// completes index: services in declaration order, then each pod's
	// instance as the pod is created.
	names *trace.Names

	// Call-record pools (see request.go): one directCall per call on a
	// direct edge, one callState per call on a policy edge and one
	// attempt per try. The *Made counters count pool misses, so once the
	// kernel drains every record is back: len(free) == made.
	directFree  []*directCall
	callFree    []*callState
	attemptFree []*attempt
	directMade  int
	callMade    int
	attemptMade int

	// Resilience / fault-injection state. resRNG is the deterministic
	// stream behind backoff jitter and wire-loss decisions; edgeTab
	// holds per-edge policies, faults, breakers and retry windows,
	// indexed by caller id × service count + callee id (nil until the
	// first edge is configured, see ensureEdge), with edgeOrder listing
	// the same records in creation order for deterministic reporting.
	edgeTab   []*edgeState
	edgeOrder []*edgeState
	resRNG    *rand.Rand

	completed uint64
	failed    uint64 // roots that completed but lost an essential call
	degraded  uint64 // roots that completed with a degraded response
	refused   uint64 // visits refused by down pods
	lostCalls uint64 // attempts lost on a faulted edge
	timedOut  uint64 // attempts that hit their deadline
	retries   uint64 // re-dispatched attempts after failure
	rejected  uint64 // attempts rejected by an open circuit breaker
	inFlight  int

	tel *telemetry.Recorder

	// flight, when armed, samples windowed time-series rows onto the
	// telemetry recorder (see flight.go). Nil costs one pointer test on
	// the e2e completion path.
	flight *FlightRecorder

	// cp, when non-nil, is the control plane (see ctrlplane.go): it
	// decides when membership changes reach the endpoint views.
	cp *ControlPlane

	// lb is the replica-level balancer Service.pick applies (from
	// node.Config.LB; round-robin without a control plane), and lbRNG the
	// stream behind its power-of-two-choices draws.
	lb    node.LBPolicy
	lbRNG *rand.Rand
}

// lbLabel seeds the load balancer's power-of-two-choices stream; like
// every cluster stream it is derived from (seed, label) only.
const lbLabel = 0x10ad

// New deploys app onto a fresh simulated cluster driven by kernel k.
func New(k *sim.Kernel, app App, opts Options) (*Cluster, error) {
	if k == nil {
		return nil, fmt.Errorf("cluster: nil kernel")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		k:        k,
		app:      app,
		services: make(map[string]*Service, len(app.Services)),
		svcs:     make([]*Service, len(app.Services)),
		rng:      k.Split(0xc1),
		resRNG:   k.Split(0x4e5),
		lbRNG:    k.Split(lbLabel),
		tel:      opts.Telemetry,
	}
	if c.tel != nil {
		// FlushTelemetry samples spans from the whole window at the
		// end of the run. Nothing has completed yet, so this cannot fail.
		_ = c.RetainTraces(trace.DefaultRetention)
	}
	if opts.ControlPlane != nil {
		// Build the control plane before the services: every initial pod
		// must go through the scheduler and cold start.
		cp, err := newControlPlane(c, *opts.ControlPlane)
		if err != nil {
			return nil, err
		}
		c.cp = cp
		c.lb = opts.ControlPlane.LB
	}
	names := make([]string, len(app.Services))
	for i, spec := range app.Services {
		svc := &Service{c: c, id: int32(i), name: spec.Name, spec: spec}
		c.services[spec.Name] = svc
		c.svcs[i] = svc
		names[i] = spec.Name
	}
	c.names = trace.NewNames(names)
	// Pods are added once every service has its id, since a pod's
	// client pools are indexed by their targets' ids.
	for _, svc := range c.svcs {
		for range svc.spec.Replicas {
			svc.addInstance()
		}
	}
	if err := c.SetMix(app.Mix); err != nil {
		return nil, err
	}
	return c, nil
}

// pruneInterval is how many completions elapse between lazy housekeeping
// passes over the metric logs. Pruning is lazy (piggybacked on request
// completion) rather than timer-driven so that Kernel.Run terminates when
// the workload does.
const pruneInterval = 4096

// housekeep drops the history of each declared completion log beyond
// its reach.
func (c *Cluster) housekeep() {
	now := c.k.Now()
	c.e2eLog.prune(now)
	for _, svc := range c.svcs {
		svc.spanLog.prune(now)
	}
}

// declaredLog is a completion log a reader declared (RecordCompletions,
// RecordSpans). It keeps the entries completing within reach of now,
// and notes whether a prune has dropped one: a longer reach declared
// after that would read a history with a hole.
type declaredLog struct {
	log    metrics.CompletionLog
	reach  time.Duration
	pruned bool
}

// declareLog declares a reader of *l that reads reach back, capped at
// trace.DefaultRetention: the first declaration creates the log, and a
// longer one widens it while it has pruned nothing. missed reports
// that an entry completed before the first declaration. what names
// the log in errors.
func declareLog(l **declaredLog, reach time.Duration, missed bool, what string) error {
	if reach <= 0 {
		return fmt.Errorf("cluster: %s reach must be positive, got %v", what, reach)
	}
	reach = min(reach, trace.DefaultRetention)
	d := *l
	switch {
	case d == nil && missed:
		return fmt.Errorf("cluster: %s declared after completions went unrecorded", what)
	case d == nil:
		*l = &declaredLog{reach: reach}
	case reach <= d.reach:
	case d.pruned:
		return fmt.Errorf("cluster: %s reach widened to %v after entries were pruned at %v", what, reach, d.reach)
	default:
		d.reach = reach
	}
	return nil
}

// prune drops the entries completing more than the reach before now. A
// nil log, which no reader declared, has nothing to prune.
func (d *declaredLog) prune(now sim.Time) {
	if d == nil {
		return
	}
	n := d.log.Len()
	d.log.Prune(now - sim.Time(d.reach))
	d.pruned = d.pruned || d.log.Len() < n
}

// Kernel returns the simulation kernel driving this cluster.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Warehouse returns the trace warehouse (the simulated Jaeger+Neo4j
// backend), or nil until a reader declares it with RetainTraces or
// RetainScans. A nil warehouse answers Len and Stats with zeros; its
// Window panics.
func (c *Cluster) Warehouse() *trace.Warehouse { return c.warehouse }

// RetainTraces declares a reader of whole traces (Trace.Records) that
// reads traces completing up to reach before the newest one: from now
// on every completed trace is stored whole, and kept while it lies
// within the longest reach declared so far, capped at
// trace.DefaultRetention. A cluster no reader declared stores none. A
// declaration no longer than an earlier one is a no-op; a longer one
// widens the warehouse only while it has evicted nothing. Declaring
// after a trace has completed unretained, widening after an eviction,
// or declaring whole traces once a trace was stored in its scan form
// (see RetainScans) is an error, since the warehouse would silently
// lack that history; declare before the run.
func (c *Cluster) RetainTraces(reach time.Duration) error { return c.retain(reach, true) }

// RetainScans declares a reader that reads only the scan records of the
// traces (Trace.Scan) completing up to reach before the newest one, as
// the SCG and SCT models do. Reach and errors follow RetainTraces. A
// warehouse only scan readers declared before its first trace stores
// each settled trace in its scan form, a third of the whole stream's
// size (DESIGN.md §13 "Declared trace form"); one a whole-trace reader
// declared stores the whole stream, which Scan reads as well.
func (c *Cluster) RetainScans(reach time.Duration) error { return c.retain(reach, false) }

// retain declares a reader of traces up to reach back, of whole traces
// or of their scan records.
func (c *Cluster) retain(reach time.Duration, whole bool) error {
	if reach <= 0 {
		return fmt.Errorf("cluster: trace reach must be positive, got %v", reach)
	}
	reach = min(reach, trace.DefaultRetention)
	if c.warehouse != nil {
		if whole {
			if err := c.warehouse.KeepWhole(); err != nil {
				return err
			}
		}
		return c.warehouse.Widen(reach)
	}
	if c.unretained {
		return fmt.Errorf("cluster: trace retention declared after traces completed unretained")
	}
	if whole {
		c.warehouse = trace.NewWarehouse(reach)
	} else {
		c.warehouse = trace.NewScanWarehouse(reach)
	}
	return nil
}

// Completions returns the end-to-end completion log across all request
// types. It panics unless the log was declared through
// RecordCompletions before the first request completed: an empty log
// would read as a cluster that served nothing.
func (c *Cluster) Completions() *metrics.CompletionLog {
	if c.e2eLog == nil {
		panic("cluster: end-to-end completion log read but never declared (call Cluster.RecordCompletions before the run)")
	}
	return &c.e2eLog.log
}

// RecordCompletions declares a reader of the end-to-end completion log
// (Completions) that reads completions up to reach before now: from now
// on every completed request is recorded, and kept while it lies within
// the longest reach declared so far, capped at trace.DefaultRetention.
// A cluster no reader declared records none. A declaration no longer
// than an earlier one is a no-op; a longer one widens the log only
// while it has pruned nothing. A non-positive reach, declaring after a
// request has completed unrecorded, or widening after a prune is an
// error, since the log would silently lack that history; declare
// before the run.
func (c *Cluster) RecordCompletions(reach time.Duration) error {
	return declareLog(&c.e2eLog, reach, c.unrecorded, "end-to-end completion log")
}

// RecordSpans declares a reader of the named service's span log that
// reads visits up to reach before now: from now on each of its visit
// completions is recorded, and SpanLog returns the log. Only declared
// services pay for a log. Reach and errors follow RecordCompletions; an
// unknown service is an error too.
func (c *Cluster) RecordSpans(service string, reach time.Duration) error {
	svc, err := c.Service(service)
	if err != nil {
		return err
	}
	return declareLog(&svc.spanLog, reach, svc.unlogged, fmt.Sprintf("span log of service %q", service))
}

// Service returns the named service.
func (c *Cluster) Service(name string) (*Service, error) {
	s, ok := c.services[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown service %q", name)
	}
	return s, nil
}

// ServiceNames returns all service names in declaration order.
func (c *Cluster) ServiceNames() []string {
	out := make([]string, len(c.svcs))
	for i, svc := range c.svcs {
		out[i] = svc.name
	}
	return out
}

// TraceNames returns the name table the records of this cluster's traces
// index; its first service ids are the positions in ServiceNames.
func (c *Cluster) TraceNames() *trace.Names { return c.names }

// OnComplete registers a callback invoked for every completed trace.
// The *Trace is valid only during the callback: once every callback has
// returned, the cluster releases it, reuses its header for a later
// request and, for a settled trace, its spans. Reading it after that
// panics. A callback that keeps the trace must keep tr.Retain().
func (c *Cluster) OnComplete(fn func(*trace.Trace)) {
	if fn != nil {
		c.onComplete = append(c.onComplete, fn)
	}
}

// SetMix replaces the workload mix used by SubmitMix, compiling each
// request type the cluster has not run before (see plan). Used by
// the system-state-drifting experiments to switch request weights (e.g.
// light to heavy Post Storage reads) mid-run.
func (c *Cluster) SetMix(mix []WeightedRequest) error {
	if len(mix) == 0 {
		return fmt.Errorf("cluster: empty mix")
	}
	entries := make([]mixEntry, len(mix))
	var total float64
	for i, wr := range mix {
		if wr.Type != nil && wr.Weight < 0 {
			return fmt.Errorf("cluster: request type %q has negative weight", wr.Type.Name)
		}
		p, err := c.plan(wr.Type)
		if err != nil {
			return err
		}
		entries[i] = mixEntry{p: p, weight: wr.Weight}
		total += wr.Weight
	}
	if total <= 0 {
		return fmt.Errorf("cluster: mix has zero total weight")
	}
	c.mix = entries
	c.mixTotal = total
	return nil
}

// mixEntry is one compiled request type of the workload mix and its
// weight.
type mixEntry struct {
	p      *planNode
	weight float64
}

// SubmitMix injects one request drawn from the workload mix.
func (c *Cluster) SubmitMix() { c.SubmitMixWith(nil) }

// SubmitMixWith injects one request drawn from the workload mix and calls
// onDone when it completes or fails (closed-loop generators need the
// per-request completion signal to model user think cycles).
func (c *Cluster) SubmitMixWith(onDone func()) {
	r := c.rng.Float64() * c.mixTotal
	for _, e := range c.mix {
		r -= e.weight
		if r < 0 {
			c.submit(e.p, onDone)
			return
		}
	}
	// Floating-point residue: fall through to the last type.
	c.submit(c.mix[len(c.mix)-1].p, onDone)
}

// SubmitWith injects one request of type rt, compiling it on first use,
// and calls onDone at its completion (successful or failed). It fails,
// submitting nothing, when rt cannot be compiled.
//
//soravet:allow deadcode (b) fixture: cluster tests submit a request type outside the mix through it
func (c *Cluster) SubmitWith(rt *RequestType, onDone func()) error {
	p, err := c.plan(rt)
	if err != nil {
		return err
	}
	c.submit(p, onDone)
	return nil
}

// submit injects one request of the compiled type whose root is p.
func (c *Cluster) submit(p *planNode, onDone func()) {
	c.nextTraceID++
	rc := c.newRootCall()
	rc.id = c.nextTraceID
	rc.p = p
	rc.onDone = onDone
	c.inFlight++
	c.startVisit(p, nil, 0, 0, rc.doneFn)
}

// rootCall is one submitted request from its root visit's start until
// its completion is booked. Its completion method is bound once per
// struct, so submitting a request hands startVisit an existing func
// value instead of a fresh closure, and tr is the trace header the
// OnComplete callbacks get, so completing one allocates none.
//
//soravet:pool rootCall invalidated-by Cluster.freeRootCall record dead once freeRootCall returns; done recycles it last, after the OnComplete callbacks have released its trace, and a later SubmitWith may reissue it
type rootCall struct {
	id     trace.ID
	p      *planNode // the request type's root
	onDone func()
	c      *Cluster
	doneFn func(*visit)
	tr     trace.Trace
}

// done books the root visit's completion: the counters, the completion
// logs and — unless it failed, and once a reader declared the warehouse
// — the trace, added to the warehouse as unsettled when a timed-out
// call under it left orphaned work behind. The warehouse encodes a
// settled trace's tree when it stores it; once the OnComplete callbacks
// have run, the trace header is released and the spans go back on the
// free list, as do those of a settled failed root, which is never
// stored. An unsettled trace keeps its live tree in the warehouse, as
// orphaned work may still change it; without a warehouse it is simply
// dropped. The submitter's onDone runs last.
func (rc *rootCall) done(root *visit) {
	c := rc.c
	c.inFlight--
	// The root visit is dead once this callback returns; copy what the
	// bookkeeping below needs and recycle the struct up front.
	span := root.span
	failed, degraded, unsettled := root.failed, root.degraded, root.unsettled
	c.freeVisit(root)
	if onDone := rc.onDone; onDone != nil {
		defer onDone()
	}
	if failed {
		// A root that lost an essential call past its retry budget (or
		// whose own pod crashed) showed the user an error page and is
		// counted in Failed(). It reaches neither the completion logs
		// nor the warehouse.
		c.failed++
		if !unsettled {
			c.freeSpans(span)
		}
		c.freeRootCall(rc)
		return
	}
	c.completed++
	if degraded {
		c.degraded++
	}
	if c.completed%pruneInterval == 0 {
		c.housekeep()
	}
	tr := &rc.tr
	*tr = trace.Trace{ID: rc.id, Type: rc.p.rt.Name, Root: span, Names: c.names, Settled: !unsettled}
	switch {
	case c.warehouse == nil:
		c.unretained = true
	case unsettled:
		c.warehouse.AddUnsettled(tr)
	default:
		c.warehouse.Add(tr)
	}
	rtime := tr.ResponseTime()
	if c.flight != nil {
		c.flight.noteE2E(rtime, degraded)
	}
	if c.e2eLog != nil {
		c.e2eLog.log.AddFlagged(c.k.Now(), rtime, degraded)
	} else {
		c.unrecorded = true
	}
	for _, fn := range c.onComplete {
		fn(tr)
	}
	tr.Release()
	if !unsettled {
		c.freeSpans(span)
	}
	c.freeRootCall(rc)
}

// newSpan hands out a recycled (or fresh) zeroed span. A recycled span
// keeps the capacity of its empty child list.
func (c *Cluster) newSpan() *trace.Span {
	if n := len(c.spanFree); n > 0 {
		s := c.spanFree[n-1]
		c.spanFree[n-1] = nil
		c.spanFree = c.spanFree[:n-1]
		return s
	}
	return &trace.Span{} //soravet:allow hotpath pool miss: allocates only while the live-span high-water mark rises or unsettled traces keep theirs, then the free list serves every newSpan
}

// freeSpans returns the tree under s to the span free list: every span
// zeroed, its child list emptied but kept. The caller guarantees that
// nothing refers to the tree any more: the warehouse encoded its trace
// or stored none, and it is settled, so no orphaned call can reach it.
func (c *Cluster) freeSpans(s *trace.Span) {
	kids := s.Children
	for _, k := range kids {
		c.freeSpans(k)
	}
	clear(kids)
	*s = trace.Span{Children: kids[:0]}
	c.spanFree = append(c.spanFree, s)
}

// newVisit hands out a recycled (or fresh) visit struct. The cluster
// pointer and the two bound CPU-phase closures are created once per
// struct and survive recycling; everything else is reset by freeVisit.
func (c *Cluster) newVisit() *visit {
	if n := len(c.visitFree); n > 0 {
		v := c.visitFree[n-1]
		c.visitFree[n-1] = nil
		c.visitFree = c.visitFree[:n-1]
		return v
	}
	v := &visit{c: c}           //soravet:allow hotpath pool miss: allocates only while the live-visit high-water mark rises, then the free list serves every newVisit
	v.reqDoneFn = v.reqWorkDone //soravet:allow hotpath bound once per struct lifetime (pool miss only) and reused across recycles, so Submit stays closure-free
	v.resDoneFn = v.resWorkDone //soravet:allow hotpath bound once per struct lifetime (pool miss only) and reused across recycles, so Submit stays closure-free
	return v
}

// freeVisit recycles a visit struct once nothing references it anymore:
// the consumer of its completion signal has read the outcome flags, or —
// for the root — the submit callback has finished with it. Orphaned
// visits (abandoned calls with no completion consumer) are never freed
// explicitly and fall to the garbage collector.
func (c *Cluster) freeVisit(v *visit) {
	v.inst = nil
	v.node = nil
	v.span = nil
	v.onDone = nil
	v.childrenLeft = 0
	v.seqNext = 0
	v.outstanding = 0
	v.backoffs = 0
	v.brWaits = 0
	v.waitMode = waitNone
	v.waitSince = 0
	v.cpuSince = 0
	v.deadline = 0
	v.epoch = 0
	v.failed = false
	v.degraded = false
	v.unsettled = false
	c.visitFree = append(c.visitFree, v)
}

// newRootCall hands out a recycled (or fresh) root-completion record
// with its completion method bound once per struct.
func (c *Cluster) newRootCall() *rootCall {
	if n := len(c.rootFree); n > 0 {
		rc := c.rootFree[n-1]
		c.rootFree[n-1] = nil
		c.rootFree = c.rootFree[:n-1]
		return rc
	}
	rc := &rootCall{c: c}
	rc.doneFn = rc.done
	return rc
}

// freeRootCall recycles a root-completion record once done has booked
// its completion and released its trace.
func (c *Cluster) freeRootCall(rc *rootCall) {
	rc.id = 0
	rc.p = nil
	rc.onDone = nil
	c.rootFree = append(c.rootFree, rc)
}

// newDirectCall hands out a recycled (or fresh) direct-call record. Its
// continuations are bound once per struct and survive recycling;
// freeDirectCall resets everything else.
func (c *Cluster) newDirectCall() *directCall {
	if n := len(c.directFree); n > 0 {
		dc := c.directFree[n-1]
		c.directFree[n-1] = nil
		c.directFree = c.directFree[:n-1]
		return dc
	}
	c.directMade++
	dc := &directCall{}             //soravet:allow hotpath pool miss: allocates only while the in-flight direct-call high-water mark rises, then the free list serves every dispatch
	dc.dbAcquiredFn = dc.dbAcquired //soravet:allow hotpath bound once per struct lifetime (pool miss only) and reused across recycles
	dc.sendFn = dc.send             //soravet:allow hotpath bound once per struct lifetime (pool miss only) and reused across recycles
	dc.doneFn = dc.done             //soravet:allow hotpath bound once per struct lifetime (pool miss only) and reused across recycles
	return dc
}

// freeDirectCall recycles a direct-call record once the response has
// been consumed.
func (c *Cluster) freeDirectCall(dc *directCall) {
	dc.v = nil
	dc.child = nil
	dc.cp = nil
	c.directFree = append(c.directFree, dc)
}

// newCallState hands out a recycled (or fresh) policy-edge call record
// with its continuations bound once per struct.
func (c *Cluster) newCallState() *callState {
	if n := len(c.callFree); n > 0 {
		cs := c.callFree[n-1]
		c.callFree[n-1] = nil
		c.callFree = c.callFree[:n-1]
		return cs
	}
	c.callMade++
	cs := &callState{}
	cs.dbAcquiredFn = cs.dbAcquired
	cs.sendFn = cs.send
	cs.backoffDoneFn = cs.backoffDone
	return cs
}

// freeCallState recycles a call record once the call has resolved.
func (c *Cluster) freeCallState(cs *callState) {
	cs.v = nil
	cs.child = nil
	cs.es = nil
	cs.cp = nil
	cs.attempts = 0
	cs.isProbe = false
	cs.brRejected = false
	c.callFree = append(c.callFree, cs)
}

// newAttempt hands out a recycled (or fresh) attempt with its cluster
// pointer and leg callbacks bound once per struct.
func (c *Cluster) newAttempt() *attempt {
	if n := len(c.attemptFree); n > 0 {
		at := c.attemptFree[n-1]
		c.attemptFree[n-1] = nil
		c.attemptFree = c.attemptFree[:n-1]
		return at
	}
	c.attemptMade++
	at := &attempt{c: c}
	at.arriveFn = at.arrive
	at.timeoutFn = at.timeout
	at.lostFn = at.lost
	at.doneFn = at.done
	at.answeredFn = at.answered
	return at
}

// freeAttempt recycles an attempt once it is settled and its last leg
// has closed.
func (c *Cluster) freeAttempt(at *attempt) {
	at.cs = nil
	at.es = nil
	at.node = nil
	at.pspan = nil
	at.fanout = 0
	at.dl = 0
	at.cp = nil
	at.timer = nil
	at.child = nil
	at.cv = nil
	at.legs = 0
	at.isProbe = false
	at.settled = false
	c.attemptFree = append(c.attemptFree, at)
}

// Completed returns the number of end-to-end completed requests
// (degraded responses included).
func (c *Cluster) Completed() uint64 { return c.completed }

// Failed returns the number of requests that completed as user-visible
// errors: an essential downstream call was lost past its retry budget.
func (c *Cluster) Failed() uint64 { return c.failed }

// Degraded returns the number of completed requests whose response was
// degraded (an optional call was dropped by its resilience policy).
func (c *Cluster) Degraded() uint64 { return c.degraded }

// Refused returns the number of service visits refused by crashed pods.
func (c *Cluster) Refused() uint64 { return c.refused }

// LostCalls returns the number of attempts lost on faulted edges.
func (c *Cluster) LostCalls() uint64 { return c.lostCalls }

// TimedOut returns the number of attempts that hit their deadline.
func (c *Cluster) TimedOut() uint64 { return c.timedOut }

// Retries returns the number of re-dispatched attempts after failures.
func (c *Cluster) Retries() uint64 { return c.retries }

// BreakerRejections returns the number of attempts rejected by open
// circuit breakers.
func (c *Cluster) BreakerRejections() uint64 { return c.rejected }

// InFlight returns the number of requests currently inside the system.
func (c *Cluster) InFlight() int { return c.inFlight }

// sampleDemand draws from d, treating nil as zero work.
func (c *Cluster) sampleDemand(d dist.Distribution) time.Duration {
	if d == nil {
		return 0
	}
	return d.Sample(c.rng)
}

// withEdgeDelay runs fn after one network hop over a policy-bearing
// edge: at once, unless the edge's fault injects an ExtraDelay.
func (c *Cluster) withEdgeDelay(es *edgeState, fn func()) {
	d := es.fault.ExtraDelay
	if d <= 0 {
		fn()
		return
	}
	c.k.Schedule(d, fn)
}
