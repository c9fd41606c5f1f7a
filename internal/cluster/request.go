package cluster

import (
	"time"

	"sora/internal/sim"
	"sora/internal/trace"
)

// Wait modes: which span counter the visit's currently open off-CPU
// wait window belongs to. Exactly one window is open at a time, so
// Blocked, RetryWait and BreakerWait stay disjoint by construction and
// the profiler's seven-phase decomposition remains exact.
const (
	waitNone int8 = iota
	waitBlocked
	waitRetry
	waitBreaker
)

// visit is the execution state of one service visit (one span).
//
//soravet:pool visit invalidated-by Cluster.freeVisit handle dead once freeVisit returns; the cluster free-lists the struct and a later newVisit may reissue it (orphans are never freed and fall to the GC)
type visit struct {
	c    *Cluster
	inst *Instance
	node *planNode
	span *trace.Span

	onDone func(*visit)

	// Child-call progress.
	childrenLeft int
	seqNext      int
	outstanding  int  // dispatched, not yet settled child attempts
	backoffs     int  // pending retry-backoff waits
	brWaits      int  // pending breaker-rejection backoff waits
	waitMode     int8 // which counter the open wait window feeds
	waitSince    sim.Time
	cpuSince     sim.Time // valid while a CPU work phase is in flight
	deadline     sim.Time // propagated deadline; 0 = none
	epoch        uint64   // pod epoch at admission; mismatch = crashed under us
	failed       bool     // an essential descendant call was lost
	degraded     bool     // an optional descendant call was degraded away
	unsettled    bool     // a call under this visit timed out; its orphan may still change the trace

	// reqDoneFn/resDoneFn are the CPU-phase completion callbacks, bound
	// once when the struct is first allocated and reused across pool
	// recycles, so submitting work to the PS server allocates no closure.
	reqDoneFn func()
	resDoneFn func()
}

// reWait maintains the visit's single off-CPU wait window. Blocked
// (RPCs in flight) dominates breaker backoff, which dominates retry
// backoff; on every mode change the closing window is charged to the
// span counter it belonged to. With no resilience policies configured
// this reduces to the original 0↔1 outstanding bookkeeping.
func (v *visit) reWait() {
	mode := waitNone
	switch {
	case v.outstanding > 0:
		mode = waitBlocked
	case v.brWaits > 0:
		mode = waitBreaker
	case v.backoffs > 0:
		mode = waitRetry
	}
	if mode == v.waitMode {
		return
	}
	now := v.c.k.Now()
	switch v.waitMode {
	case waitBlocked:
		v.span.Blocked += time.Duration(now - v.waitSince)
	case waitRetry:
		v.span.RetryWait += time.Duration(now - v.waitSince)
	case waitBreaker:
		v.span.BreakerWait += time.Duration(now - v.waitSince)
	}
	v.waitMode = mode
	v.waitSince = now
}

// startVisit routes a call-tree node to a pod of its service and begins
// the visit lifecycle. The parent span (if any) has already recorded the
// dispatch; onDone fires when the response leaves this service. The
// parent is identified by its span, not its visit: a span stays put
// until its trace completes settled and frees its spans, which an
// unsettled trace never does, while the parent visit may already be
// recycled when a timed-out attempt's orphan call finally reaches the
// wire. fanout is the
// caller's number of downstream calls, the capacity the parent's child
// list needs at its first child. The deadline is the caller's
// propagated deadline (0 = none); visits that find every pod of the
// service down are refused immediately.
//
//soravet:hotpath TestPhaseRecordingAllocFree per-hop admission: one startVisit per service visit, allocation-free except pool misses and child lists too short for the fan-out
func (c *Cluster) startVisit(node *planNode, parent *trace.Span, fanout int, deadline sim.Time, onDone func(*visit)) *visit {
	svc := node.svc
	if svc.flight != nil {
		svc.flight.arrivals++
	}
	inst := svc.pick()
	span := c.newSpan()
	span.Arrival = c.k.Now()
	v := c.newVisit()
	v.inst = inst
	v.node = node
	v.span = span
	v.deadline = deadline
	v.onDone = onDone
	if parent != nil {
		// A recycled span brings its old child list; only one too
		// short for the fan-out is replaced.
		if len(parent.Children) == 0 && cap(parent.Children) < fanout {
			parent.Children = make([]*trace.Span, 0, fanout) //soravet:allow hotpath child list sized to the caller's fan-out, made only when the recycled span's list is shorter
		}
		parent.Children = append(parent.Children, span) //soravet:allow hotpath fills the list presized to the fan-out; only retries and orphaned attempts grow it
	}
	if inst == nil {
		span.SetIDs(node.sid, -1)
		v.refuse()
		return v
	}
	span.SetIDs(node.sid, inst.nameID)
	inst.enqueue(v)
	return v
}

// begin runs when the visit is admitted past the thread pool. The
// sampled demand is recorded on the span (ideal CPU time) and the PS
// server's actual wall time is accounted on completion, so every span
// carries its own contention inflation.
func (v *visit) begin() {
	now := v.c.k.Now()
	v.span.Start = now
	demand := v.c.sampleDemand(v.node.req)
	v.span.Demand += demand
	v.cpuSince = now
	v.inst.cpu.Submit(demand, v.reqDoneFn)
}

// reqWorkDone closes the request-side CPU phase and moves to downstream
// dispatch.
func (v *visit) reqWorkDone() {
	v.span.CPU += time.Duration(v.c.k.Now() - v.cpuSince)
	v.childrenPhase()
}

// childrenPhase dispatches downstream calls after request-side work.
func (v *visit) childrenPhase() {
	kids := v.node.kids
	v.childrenLeft = len(kids)
	if v.childrenLeft == 0 {
		v.responsePhase()
		return
	}
	if v.node.parallel {
		// Dispatch all children now. Each dispatch may still wait on a
		// connection slot independently.
		for i := range kids {
			v.startCall(&kids[i])
		}
		return
	}
	v.seqNext = 0
	v.startCall(&kids[v.seqNext])
	v.seqNext++
}

// startCall routes one downstream call: edges with a resilience policy
// or an injected fault go through the callState attempt machinery;
// everything else takes the direct path. Both run on pooled call
// records whose continuations are bound once per struct, so once the
// free lists warm a call allocates nothing beyond its child visit's
// span. The edge is found by the child's slot in the dense edge table,
// which stays nil until the first policy or fault is set.
func (v *visit) startCall(child *planNode) {
	var es *edgeState
	if t := v.c.edgeTab; t != nil {
		es = t[child.edge]
	}
	if es == nil || !es.active() {
		v.dispatchDirect(child)
		return
	}
	cs := v.c.newCallState()
	cs.v = v
	cs.child = child
	cs.es = es
	cs.dispatch()
}

// directCall is one downstream call over a direct edge, from slot
// acquisition until the response reaches the caller. Its steps are
// methods bound once per struct (the *Fn fields), so the pool wait lists
// and the kernel are handed existing func values, never fresh closures.
//
//soravet:pool directCall invalidated-by Cluster.freeDirectCall record dead once freeDirectCall returns; done recycles it before advancing the caller, and a later dispatchDirect may reissue it
type directCall struct {
	v     *visit
	child *planNode
	cp    *pool // client-connection slot held; nil when the edge has no client pool

	dbAcquiredFn func()
	sendFn       func()
	doneFn       func(*visit)
}

// dispatchDirect acquires this pod's downstream-connection slot and, if
// configured, the per-target client-connection slot, then sends the
// call. Slot waits happen off-CPU but count toward this service's
// processing time (the visit is not "blocked on downstream" until the
// RPC is actually in flight).
//
//soravet:hotpath TestPhaseRecordingAllocFree per-call dispatch on direct edges: a recycled call record whose bound continuations go on the slot wait lists, allocation-free once the free list warms
func (v *visit) dispatchDirect(child *planNode) {
	dc := v.c.newDirectCall()
	dc.v = v
	dc.child = child
	v.inst.db.acquire(dc.dbAcquiredFn)
}

// dbAcquired runs once the downstream-connection slot is held.
func (dc *directCall) dbAcquired() {
	if cp := dc.v.inst.clientPool(dc.child.sid); cp != nil {
		dc.cp = cp
		cp.acquire(dc.sendFn)
		return
	}
	dc.send()
}

// send starts the child visit once every slot is held; a direct edge's
// hops take no time.
func (dc *directCall) send() {
	v := dc.v
	v.outstanding++
	v.reWait()
	v.c.startVisit(dc.child, v.span, len(v.node.kids), v.deadline, dc.doneFn)
}

// done is the child's completion signal, the response reaching the
// caller. It frees the slots, consumes the child's outcome, and recycles
// the child visit and the record before the caller advances, so its next
// call can reuse both.
func (dc *directCall) done(cv *visit) {
	v := dc.v
	v.inst.releaseSlots(dc.cp)
	v.outstanding--
	v.reWait()
	if cv.failed {
		v.failed = true
	} else if cv.degraded {
		v.degraded = true
	}
	if cv.unsettled {
		v.unsettled = true
	}
	// The child's outcome has been consumed; its span stays in the
	// trace tree, the struct recycles.
	v.c.freeVisit(cv)
	v.c.freeDirectCall(dc)
	v.childAnswered()
}

// callState drives one downstream call over a policy- or fault-bearing
// edge through its attempt budget. At most one unsettled attempt or one
// backoff wait refers to it at a time, and neither is left when the call
// resolves, so resolve recycles it on the spot.
//
//soravet:pool callState invalidated-by resolve,Cluster.freeCallState record dead once the call resolves; resolve free-lists it before the caller advances, and settled attempts never refer back to it
type callState struct {
	v          *visit
	child      *planNode
	es         *edgeState
	cp         *pool // client slot acquired for the attempt being sent; nil when none
	attempts   int   // attempts consumed (dispatched or breaker-rejected)
	isProbe    bool  // the attempt being dispatched is a half-open breaker probe
	brRejected bool  // the pending backoff follows a breaker rejection

	dbAcquiredFn  func()
	sendFn        func()
	backoffDoneFn func()
}

// dispatch consumes one attempt: deadline check, breaker admission,
// connection-slot acquisition, then the wire.
func (cs *callState) dispatch() {
	v := cs.v
	if v.deadline > 0 && v.c.k.Now() >= v.deadline {
		cs.exhausted()
		return
	}
	cs.attempts++
	allowed, isProbe := cs.es.breakerAllow(v.c)
	if !allowed {
		v.c.rejected++
		cs.afterFailure(true)
		return
	}
	cs.isProbe = isProbe
	v.inst.db.acquire(cs.dbAcquiredFn)
}

// dbAcquired runs once the downstream-connection slot is held.
func (cs *callState) dbAcquired() {
	if cp := cs.v.inst.clientPool(cs.child.sid); cp != nil {
		cs.cp = cp
		cp.acquire(cs.sendFn)
		return
	}
	cs.send()
}

// attempt is one try of a callState: it owns the connection slots, the
// timeout timer, and the settled flag that makes answer/timeout/loss
// mutually exclusive. Only settle touches the call: from then on the
// call may resolve and recycle while a request hop or a late answer is
// still pending, so the attempt carries its own copy of everything
// those need. It is recycled once it is settled and all three of its
// legs are closed:
//
//   - wire: the request hop's callback has run (it started the child or
//     an orphan, or reported the loss);
//   - timer: the deadline fired, or settle cancelled it;
//   - answer: the child's response hop has landed (answered).
//
//soravet:pool attempt invalidated-by closeLeg,Cluster.freeAttempt record dead once closeLeg returns; closing the last leg of a settled attempt free-lists it, and a later send may reissue it
type attempt struct {
	c       *Cluster
	cs      *callState // nil once settled
	es      *edgeState
	node    *planNode   // the callee
	pspan   *trace.Span // caller's span: stays valid after the caller's visit recycles
	fanout  int         // the caller's downstream call count
	dl      sim.Time    // attempt deadline; 0 = none
	cp      *pool       // client-connection slot held; nil when none
	timer   *sim.Timer
	child   *trace.Span // child visit's span, for Abandoned marking
	cv      *visit      // answered child, held across the return hop
	legs    int8        // open legs: wire, timer, answer
	isProbe bool
	settled bool

	arriveFn   func()
	timeoutFn  func()
	lostFn     func()
	doneFn     func(*visit)
	answeredFn func()
}

// send puts one attempt on the wire: computes the attempt deadline
// (min of policy timeout and propagated deadline), applies the edge's
// injected loss, and dispatches the child visit.
func (cs *callState) send() {
	v := cs.v
	c := v.c
	now := c.k.Now()
	at := c.newAttempt()
	at.cs = cs
	at.es = cs.es
	at.node = cs.child
	// Capture the parent span before the wire delay: if the attempt
	// times out in flight, v may finish and be recycled before the
	// request lands, but the span stays valid: the timeout leaves the
	// trace unsettled, and an unsettled trace's spans are never freed.
	at.pspan = v.span
	at.fanout = len(v.node.kids)
	at.cp = cs.cp
	cs.cp = nil
	at.isProbe = cs.isProbe
	v.outstanding++
	v.reWait()
	if t := cs.es.policy.Timeout; t > 0 {
		at.dl = now + sim.Time(t)
	}
	if v.deadline > 0 && (at.dl == 0 || v.deadline < at.dl) {
		at.dl = v.deadline
	}
	if at.dl > 0 {
		at.legs++
		at.timer = c.k.At(at.dl, at.timeoutFn)
	}
	if f := cs.es.fault; f.LossProb > 0 && c.resRNG.Float64() < f.LossProb {
		// Lost on the wire: the callee never sees the call. The caller
		// learns nothing until its attempt deadline fires; with no
		// timeout configured, model a connection reset after one hop.
		c.lostCalls++
		if at.timer == nil {
			at.legs++
			c.withEdgeDelay(cs.es, at.lostFn)
		}
		return
	}
	at.legs++
	c.withEdgeDelay(cs.es, at.arriveFn)
}

// arrive runs when the request lands at the callee, closing the wire
// leg. If the caller already timed the attempt out while the request
// was on the wire, the callee still executes it as an orphan.
func (at *attempt) arrive() {
	if at.settled {
		orphan := at.c.startVisit(at.node, at.pspan, at.fanout, at.dl, nil)
		orphan.span.Abandoned = true
	} else {
		at.legs++ // the answer leg, opened first: a refused child answers inside startVisit
		cv := at.c.startVisit(at.node, at.pspan, at.fanout, at.dl, at.doneFn)
		if !at.settled {
			// Still pending, so cv has not answered and is live; its
			// span is what a timeout marks Abandoned.
			at.child = cv.span
		}
	}
	at.closeLeg()
}

// done is the child's completion signal; the response takes one edge
// hop back to the caller.
func (at *attempt) done(cv *visit) {
	at.cv = cv
	at.c.withEdgeDelay(at.es, at.answeredFn)
}

// settle closes the attempt exactly once: cancels the timer (closing its
// leg), frees the connection slots, and closes the visit's blocked
// window. It hands the call over and forgets it; a nil result means the
// attempt was already settled.
func (at *attempt) settle() *callState {
	if at.settled {
		return nil
	}
	at.settled = true
	if at.timer != nil {
		at.timer.Cancel()
		at.timer = nil
		at.legs--
	}
	cs := at.cs
	at.cs = nil
	v := cs.v
	v.inst.releaseSlots(at.cp)
	v.outstanding--
	v.reWait()
	return cs
}

// answered handles the child's response reaching the caller, closing
// the answer leg. The child visit's flags are copied out and the struct
// recycled up front. If the attempt timed out earlier, the late response
// is discarded: its call may be long resolved and its caller recycled,
// which is why nothing here reaches them except through settle.
func (at *attempt) answered() {
	cv := at.cv
	at.cv = nil
	failed, degraded, unsettled := cv.failed, cv.degraded, cv.unsettled
	at.c.freeVisit(cv)
	if cs := at.settle(); cs != nil {
		if unsettled {
			cs.v.unsettled = true
		}
		cs.es.breakerRecord(at.c, at.isProbe, !failed)
		if failed {
			cs.afterFailure(false)
		} else {
			if degraded {
				cs.v.degraded = true
			}
			cs.resolve()
		}
	}
	at.closeLeg()
}

// timeout fires at the attempt deadline, closing the timer leg: the
// in-flight child (if it started) becomes an orphan, and the attempt
// counts as failed. The orphan — or the request still on the wire,
// which arrive starts as one — may change the trace after its root
// completes, so the caller's visit is marked unsettled; the mark
// travels up with each answer to the root (see rootCall.done).
func (at *attempt) timeout() {
	at.timer = nil
	if cs := at.settle(); cs != nil {
		cs.v.unsettled = true
		if at.child != nil {
			at.child.Abandoned = true
		}
		at.c.timedOut++
		cs.es.breakerRecord(at.c, at.isProbe, false)
		cs.afterFailure(false)
	}
	at.closeLeg()
}

// lost handles a wire-lost attempt on an edge with no timeout: a
// one-hop connection reset, closing the wire leg.
func (at *attempt) lost() {
	if cs := at.settle(); cs != nil {
		cs.es.breakerRecord(at.c, at.isProbe, false)
		cs.afterFailure(false)
	}
	at.closeLeg()
}

// closeLeg closes one of the attempt's legs and recycles the attempt
// when that was the last one of a settled attempt. It must be the leg
// callback's final use of the attempt.
func (at *attempt) closeLeg() {
	at.legs--
	if at.legs == 0 && at.settled {
		at.c.freeAttempt(at)
	}
}

// afterFailure decides between another attempt (after backoff, charged
// to RetryWait or, for breaker rejections, BreakerWait) and exhaustion.
func (cs *callState) afterFailure(brRejected bool) {
	v := cs.v
	if cs.attempts < cs.es.maxAttempts() {
		backoff := v.c.backoffFor(cs.attempts)
		if v.deadline == 0 || v.c.k.Now()+sim.Time(backoff) < v.deadline {
			if brRejected {
				v.brWaits++
			} else {
				v.backoffs++
				v.c.noteRetry(cs.es)
			}
			v.reWait()
			cs.brRejected = brRejected
			v.c.k.Schedule(backoff, cs.backoffDoneFn)
			return
		}
	}
	cs.exhausted()
}

// backoffDone ends a backoff wait and dispatches the next attempt.
func (cs *callState) backoffDone() {
	v := cs.v
	if cs.brRejected {
		v.brWaits--
	} else {
		v.backoffs--
	}
	v.reWait()
	cs.dispatch()
}

// exhausted resolves the call after the attempt budget (or deadline) is
// spent: optional calls degrade the caller's response, essential calls
// fail its subtree.
func (cs *callState) exhausted() {
	if cs.es.policy.Optional {
		cs.v.degraded = true
	} else {
		cs.v.failed = true
	}
	cs.resolve()
}

// resolve ends the call and recycles the record before the caller
// advances, so the caller's next sequential call can reuse it.
func (cs *callState) resolve() {
	v := cs.v
	v.c.freeCallState(cs)
	v.childAnswered()
}

// childAnswered advances sequential dispatch or the join after one
// downstream call resolves (successfully, degraded, or failed).
func (v *visit) childAnswered() {
	v.childrenLeft--
	if v.childrenLeft == 0 {
		v.responsePhase()
		return
	}
	if kids := v.node.kids; !v.node.parallel && v.seqNext < len(kids) {
		v.startCall(&kids[v.seqNext])
		v.seqNext++
	}
}

// responsePhase runs response-side CPU work and finishes the visit.
func (v *visit) responsePhase() {
	demand := v.c.sampleDemand(v.node.res)
	v.span.Demand += demand
	v.cpuSince = v.c.k.Now()
	v.inst.cpu.Submit(demand, v.resDoneFn)
}

// resWorkDone closes the response-side CPU phase and completes the visit.
func (v *visit) resWorkDone() {
	v.span.CPU += time.Duration(v.c.k.Now() - v.cpuSince)
	v.finish()
}

// finish stamps the span, frees the thread slot and notifies the parent.
// A pod that crashed while the visit was in flight (epoch mismatch, or
// still down) loses the response with the connection: the visit fails
// even though its work ran.
func (v *visit) finish() {
	now := v.c.k.Now()
	v.span.End = now
	if v.inst.down || v.epoch != v.inst.epoch {
		v.failed = true
	}
	if v.failed {
		v.span.Failed = true
	} else if v.degraded {
		v.span.Degraded = true
	}
	svc := v.inst.svc
	if svc.spanLog != nil {
		svc.spanLog.log.AddFlagged(now, v.span.Duration(), v.span.Degraded)
	} else {
		svc.unlogged = true
	}
	if t := svc.flight; t != nil {
		t.completions++
		t.sketch.Observe(float64(v.span.Duration()) / float64(time.Millisecond))
	}
	v.inst.visitDone()
	if v.onDone != nil {
		fn := v.onDone
		v.onDone = nil
		fn(v)
	}
}

// refuse fails the visit at arrival: the pod it was routed to is down
// (or the whole service is), so the connection is refused before any
// work happens. The span is stamped with zero service time and marked
// Failed; the refusal is counted in Refused(), and the parent (or trace
// completion) continues so upstream slots are not leaked.
func (v *visit) refuse() {
	v.failed = true
	now := v.c.k.Now()
	v.span.Start = now
	v.span.End = now
	v.span.Failed = true
	v.c.refused++
	if v.onDone != nil {
		fn := v.onDone
		v.onDone = nil
		fn(v)
	}
}
