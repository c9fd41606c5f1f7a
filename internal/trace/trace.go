// Package trace implements the distributed-tracing substrate of the Sora
// reproduction: span trees recording per-service arrival/start/end
// timestamps, an in-memory windowed trace warehouse, and critical-path
// extraction.
//
// The paper's testbed uses Jaeger-style OpenTracing instrumentation with a
// Neo4j/MongoDB trace warehouse; here the simulator records the same
// information directly. A Trace is the tree of Spans produced by one user
// request; each Span covers one service visit.
//
// A completed trace has two read forms. Trace.Records returns the spans
// as pre-order Records whose ids index the trace's Names table; the
// critical path is a descent over them with CriticalChildAt, and a
// span's depth follows from the walk (Depths). Trace.Scan returns only
// what the SCG and SCT scans read, with the critical path marked, and
// is the one form a trace stored by a warehouse no whole-trace reader
// declared still holds (see scan.go). Only the cluster, which builds
// the live tree, and the encoders read a Span.
package trace

import (
	"slices"
	"time"

	"sora/internal/sim"
)

// ID uniquely identifies a trace within one simulation run.
type ID uint64

// Span records one service visit within a request's execution tree. All
// timestamps are virtual times. A span names its service and its pod
// by their ids in its trace's Names table (see SetIDs) and stores no
// depth. Only the cluster, which builds the tree, and the encoders,
// which turn it into records, read a Span: every other reader sees a
// trace through Trace.Records.
//
//soravet:pool Span invalidated-by none spans recycle through the cluster's free list: once a settled trace's OnComplete callbacks return (the warehouse, if declared, encoded its tree when it stored it, and Retain encodes it otherwise), Cluster.freeSpans hands every span back for a later visit to reissue, so a handle is valid only while its trace holds the live tree (an unsettled trace always does); the cluster keeps span handles in visits and attempts by design, so no invalidator is declared here
type Span struct {
	Arrival sim.Time // request arrived at the service (queued for admission)
	Start   sim.Time // processing began (admitted past the soft resource)
	End     sim.Time // response left the service

	// Blocked is the total time this visit spent waiting on downstream
	// calls (off-CPU, holding its soft-resource slot). For parallel child
	// calls the simulator records the actual blocked wall time, not the
	// sum of child durations.
	Blocked time.Duration

	// Demand is the ideal CPU demand sampled for this visit (request-side
	// plus response-side work): the service time the visit would need on
	// an otherwise idle pod. The gap between actual on-CPU wall time and
	// Demand is the latency inflation caused by processor sharing and
	// multithreading overhead ("thrash").
	Demand time.Duration

	// CPU is the actual wall time the visit's work spent runnable on the
	// pod's processor-sharing server, as reported by the PS server at
	// each work phase's completion. CPU - Demand is PS-contention
	// inflation; the processing time (PT_s) minus CPU is time spent
	// waiting for connection-pool slots (off-CPU, not blocked on
	// downstream RPCs).
	CPU time.Duration

	// RetryWait is the time this visit spent waiting out retry backoff
	// after failed downstream attempts (off-CPU, holding its slot, with
	// no RPC in flight). Disjoint from Blocked by construction.
	RetryWait time.Duration

	// BreakerWait is the time this visit spent waiting out backoff
	// caused by circuit-breaker rejections (the call never left the
	// caller). Disjoint from Blocked and RetryWait.
	BreakerWait time.Duration

	// Failed marks a visit that ran to completion but lost an essential
	// downstream call in its subtree past its retry budget, or whose pod
	// crashed (or was already down) so the response was lost with the
	// connection. A visit refused at arrival carries Start == End ==
	// refusal time and no phase data.
	Failed bool

	// Degraded marks a visit that completed with a partial response: an
	// optional downstream call failed past its retry budget and the
	// caller's degradation policy filled in a fallback. Failed
	// dominates: a span is never both.
	Degraded bool

	// Abandoned marks a visit whose caller timed the attempt out: the
	// callee still executed it (orphaned work), but the result never
	// reached anyone. Abandoned spans are excluded from the critical
	// path — their End can postdate the parent's — while still being
	// archived for wasted-work analysis.
	Abandoned bool

	// service and instance are the span's ids in the Names table of its
	// trace, instance -1 for a visit refused before it reached a pod.
	// They are int32s packed beside the three flags, so a Span is 104 B,
	// within the 112 B size class.
	service, instance int32

	Children []*Span
}

// SetIDs stamps the span with the ids of its service and its pod (-1
// for none) in the Names table its trace carries. Every span a trace
// holds must be stamped: the encoders copy the ids as they are.
func (s *Span) SetIDs(service, instance int32) {
	s.service, s.instance = service, instance
}

// Duration returns the service-visit wall time including queueing:
// departure minus arrival.
func (s *Span) Duration() time.Duration {
	return time.Duration(s.End - s.Arrival)
}

// processingTime is the PT_s of a visit of wall time d: d minus its
// blocked and backoff waits, floored at zero.
func processingTime(d, blocked, retry, breaker time.Duration) time.Duration {
	pt := d - blocked - retry - breaker
	if pt < 0 {
		pt = 0
	}
	return pt
}

// Trace is the complete execution record of one user request. It holds
// its spans in one of three forms: the live tree under Root, or once the
// warehouse has stored it settled an encoded stream, either the whole
// one (see stream.go) that Records decodes or the scan form (see
// scan.go) that only Scan reads.
//
// A Trace is a short-lived value, not a handle to the stored trace. The
// cluster hands its OnComplete callbacks a *Trace it reuses and releases
// once they return; a Warehouse view's At returns one that is valid only
// while the view is. To keep a trace past either, Retain it.
type Trace struct {
	ID   ID
	Type string // request type (e.g. "getCatalogue")

	// Root is the live span tree. For a trace the cluster stores as
	// settled it is valid only during the cluster's OnComplete
	// callbacks: its spans are then reused by later requests. After the
	// callbacks, read a trace through Records or Scan, or export it.
	Root *Span

	// Names is the table the records' service and instance ids index.
	Names *Names

	enc []byte // the stored spans' stream, a capped view of a warehouse chunk (see Warehouse.Add)

	// Settled marks a live tree no orphaned work can change any more,
	// whose spans its builder reuses once the trace's readers are done:
	// Retain encodes such a tree instead of sharing it. The cluster
	// sets it on every settled trace it hands its OnComplete callbacks.
	// It sits beside the other flags so that they share a word.
	Settled  bool
	released bool // see Release
	scanForm bool // enc is a scan-form stream (see scan.go)
}

// Release ends the trace's life: it drops the trace's spans, and every
// later read through a method panics. The cluster releases the trace it
// hands its OnComplete callbacks once they return, so that a callback
// that kept the pointer fails loudly instead of reading a reused tree.
func (t *Trace) Release() { *t = Trace{released: true} }

// checkReleased panics if the trace has been released. The readers call
// it only once they have found neither a tree nor a stream, so it costs
// a valid trace nothing.
func (t *Trace) checkReleased() {
	if t.released {
		panic("trace: read of a trace after its OnComplete callbacks returned; Retain it to keep it")
	}
}

// Retain returns a copy of the trace that stays valid after the callback
// or the warehouse view it was read from. A stored whole stream is
// copied out of the warehouse's chunk, which is recycled once its traces
// are evicted; a Settled live tree the warehouse did not store whole is
// encoded into a whole stream of its own, since its spans are reused.
// Any other live trace — one stored unsettled, or built outside the
// cluster — shares its live tree, which orphaned work may still change.
// A scan-form trace read from a view, which has no tree left, is copied
// in its scan form.
func (t *Trace) Retain() *Trace {
	c := &Trace{ID: t.ID, Type: t.Type, Names: t.Names}
	switch {
	case len(t.enc) > 0 && !t.scanForm:
		c.enc = slices.Clone(t.enc)
	case t.Root != nil && t.Settled:
		c.enc = newStream(t.Root)
	case t.Root != nil:
		c.Root = t.Root
	case len(t.enc) > 0:
		c.enc, c.scanForm = slices.Clone(t.enc), true
	default:
		t.checkReleased()
	}
	return c
}

// ResponseTime returns the end-to-end response time of the request.
func (t *Trace) ResponseTime() time.Duration {
	if t.Root != nil {
		return t.Root.Duration()
	}
	if len(t.enc) > 0 && t.scanForm {
		_, rt, _, _, _ := scanHeader(t.enc)
		return rt
	}
	if len(t.enc) > 0 {
		return time.Duration(rootEnd(t.enc) - rootArrival(t.enc))
	}
	t.checkReleased()
	return 0
}

// CompletedAt returns the virtual time the response left the system.
//
//soravet:allow deadcode (b) cross-package observer: core's sealed-scan fuzz test picks its windows by completion time through it
func (t *Trace) CompletedAt() sim.Time {
	if t.Root != nil {
		return t.Root.End
	}
	if len(t.enc) > 0 && t.scanForm {
		end, _, _, _, _ := scanHeader(t.enc)
		return end
	}
	if len(t.enc) > 0 {
		return rootEnd(t.enc)
	}
	t.checkReleased()
	return 0
}

// Degraded reports whether the request completed with a partial
// response: whether its root span is Degraded.
func (t *Trace) Degraded() bool {
	if t.Root != nil {
		return t.Root.Degraded
	}
	if len(t.enc) > 0 && t.scanForm {
		_, _, _, degraded, _ := scanHeader(t.enc)
		return degraded
	}
	if len(t.enc) > 0 {
		_, _, i := header(t.enc)
		return t.enc[i]&encDegraded != 0
	}
	t.checkReleased()
	return false
}

// CriticalPathServices returns the service names along the critical
// path (see CriticalChildAt), front-end first. It reads the trace's
// scan records, so it answers in every form.
//
//soravet:allow deadcode (b) cross-package observer: cluster and topology tests observe critical paths through it
func (t *Trace) CriticalPathServices() []string {
	var names []string
	for _, r := range t.Scan(nil) {
		if r.OnPath {
			names = append(names, t.Names.Service(r.Service))
		}
	}
	return names
}

// UpstreamProcessing returns the sum of processing times of all services
// strictly above the given service on the trace's critical path, i.e.
// Σ_{k<i} PT_sk from Eq. (3) of the paper. The second return value reports
// whether the service appears on the critical path at all. The records
// are read into *scratch as Records does, so with a warmed scratch a
// call allocates nothing; like Records, it panics on a scan-form trace.
//
//soravet:allow deadcode (a) reference implementation: the SCG oracle tests compare the scan's per-span upstream time against it
func (t *Trace) UpstreamProcessing(service string, scratch *[]Record) (time.Duration, bool) {
	recs := t.Records(scratch)
	var sum time.Duration
	for i := 0; i >= 0 && i < len(recs); i = CriticalChildAt(recs, i) {
		r := &recs[i]
		if t.Names.Service(r.Service) == service {
			return sum, true
		}
		sum += r.ProcessingTime()
	}
	return 0, false
}
