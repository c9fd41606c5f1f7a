// Package trace implements the distributed-tracing substrate of the Sora
// reproduction: span trees recording per-service arrival/start/end
// timestamps, an in-memory windowed trace warehouse, and critical-path
// extraction.
//
// The paper's testbed uses Jaeger-style OpenTracing instrumentation with a
// Neo4j/MongoDB trace warehouse; here the simulator records the same
// information directly. A Trace is the tree of Spans produced by one user
// request; each Span covers one service visit.
package trace

import (
	"fmt"
	"time"

	"sora/internal/sim"
)

// ID uniquely identifies a trace within one simulation run.
type ID uint64

// Span records one service visit within a request's execution tree. All
// timestamps are virtual times.
//
//soravet:pool Span invalidated-by none spans recycle through the cluster's free list: once a settled trace's OnComplete callbacks return, Trace.Compact copies its tree into records and Cluster.freeSpans hands every span back for a later visit to reissue, so a handle is valid only while its trace holds the live tree (an unsettled trace always does); the cluster keeps span handles in visits and attempts by design, so no invalidator is declared here
type Span struct {
	Service string // logical service name (e.g. "cart")

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
	// inflation; ProcessingTime() - CPU is time spent waiting for
	// connection-pool slots (off-CPU, not blocked on downstream RPCs).
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

	// hasIDs marks a span stamped by SetIDs: service and instance are
	// its ids in the Names table of its trace, instance -1 for a visit
	// refused before it reached a pod. A span built without them names
	// only its service, and compaction interns that name.
	hasIDs bool

	// Depth is 0 for the front-end. It is an int32 packed beside the
	// four flags, so a Span stays within its 128 B size class.
	Depth int32

	service, instance int32

	Children []*Span
}

// SetIDs stamps the span with the ids of its service and its pod (-1
// for none) in the Names table its trace carries, so compaction copies
// them instead of looking a name up.
func (s *Span) SetIDs(service, instance int32) {
	s.service, s.instance, s.hasIDs = service, instance, true
}

// Instance returns the name of the span's pod in names, the table of
// the span's trace, or "" when the span has no pod.
func (s *Span) Instance(names *Names) string {
	if !s.hasIDs || names == nil {
		return ""
	}
	return names.Instance(s.instance)
}

// Duration returns the service-visit wall time including queueing:
// departure minus arrival.
func (s *Span) Duration() time.Duration {
	return time.Duration(s.End - s.Arrival)
}

// ProcessingTime returns PT_s as defined in section 3.2 of the paper: the
// time the service itself contributed to the request (request-side plus
// response-side processing, including local queueing), excluding time
// blocked on downstream services and time waiting out retry or breaker
// backoff (which is downstream-recovery wait, not local work).
func (s *Span) ProcessingTime() time.Duration {
	return processingTime(s.Duration(), s.Blocked, s.RetryWait, s.BreakerWait)
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

// Walk visits the span and all descendants in depth-first pre-order.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

func (s *Span) String() string {
	return fmt.Sprintf("%s [%v,%v] pt=%v", s.Service, s.Arrival, s.End, s.ProcessingTime())
}

// Trace is the complete execution record of one user request. It holds
// its spans in one of two forms: the live tree under Root, or once
// compacted (see Compact) an encoded stream that Records decodes.
type Trace struct {
	ID   ID
	Type string // request type (e.g. "getCatalogue")

	// Root is the live span tree. For a trace the cluster stores as
	// settled it is valid only during the cluster's OnComplete
	// callbacks: the cluster then compacts the trace, Root becomes nil
	// and its spans are reused by later requests. After the callbacks,
	// read a trace through Records or Tree, or export it.
	Root *Span

	// Names is the table the records' service and instance ids index.
	Names *Names

	enc []byte // the compacted spans' stream, a capped view of a shared chunk (see Compact); nil while Root is set
}

// ResponseTime returns the end-to-end response time of the request.
func (t *Trace) ResponseTime() time.Duration {
	if t.Root != nil {
		return t.Root.Duration()
	}
	if len(t.enc) > 0 {
		return time.Duration(rootEnd(t.enc) - rootArrival(t.enc))
	}
	return 0
}

// CompletedAt returns the virtual time the response left the system.
func (t *Trace) CompletedAt() sim.Time {
	if t.Root != nil {
		return t.Root.End
	}
	if len(t.enc) > 0 {
		return rootEnd(t.enc)
	}
	return 0
}

// SpanCount returns the number of spans in the trace.
//
//soravet:allow deadcode (b) cross-package observer: cluster tests observe recorded span counts through it
func (t *Trace) SpanCount() int {
	n := 0
	if root := t.Tree(); root != nil {
		root.Walk(func(*Span) { n++ })
	}
	return n
}

// CriticalPath returns the chain of spans of maximal duration from the
// user request to the final response: starting at the root, it descends at
// each node into the child with the largest wall-time duration. The
// returned slice is ordered front-end first (depth 0 .. k).
//
// Tie-breaking rule: when two children have exactly equal wall-time
// durations, the earliest-dispatched child (lowest index in Children,
// i.e. call order) wins. Dispatch order is deterministic in the
// simulator, so the critical path — and everything derived from it, such
// as blame attribution — is stable across runs of the same seed.
//
// Abandoned children (attempts the caller timed out) are skipped: their
// span can end after the parent's, so descending into one would break
// the containment the blame telescoping relies on; the interval the
// orphan occupied inside the parent is the parent's blocked residue.
//
// This matches the paper's definition ("the path of maximal duration that
// starts with the user request and ends with the final response") and the
// parent-child chain used by the deadline-propagation phase.
func (t *Trace) CriticalPath() []*Span {
	root := t.Tree()
	if root == nil {
		return nil
	}
	var path []*Span
	for cur := root; cur != nil; cur = cur.CriticalChild() {
		path = append(path, cur)
	}
	return path
}

// CriticalChild returns the child the critical path descends into from
// s — the longest non-abandoned child, earliest-dispatched on ties (see
// CriticalPath) — or nil when s is the path's last span. It is the one
// descent step every critical-path reader shares.
func (s *Span) CriticalChild() *Span {
	var next *Span
	var nextDur time.Duration = -1
	for _, c := range s.Children {
		if c.Abandoned {
			continue
		}
		if d := c.Duration(); d > nextDur {
			next = c
			nextDur = d
		}
	}
	return next
}

// CriticalPathServices returns the service names along the critical path.
//
//soravet:allow deadcode (b) cross-package observer: cluster and topology tests observe critical paths through it
func (t *Trace) CriticalPathServices() []string {
	path := t.CriticalPath()
	names := make([]string, len(path))
	for i, s := range path {
		names[i] = s.Service
	}
	return names
}

// FindSpan returns the first span (pre-order) for the given service, or
// nil if the trace never visited it.
//
//soravet:allow deadcode (b) cross-package observer: topology tests look up spans by service through it
func (t *Trace) FindSpan(service string) *Span {
	root := t.Tree()
	if root == nil {
		return nil
	}
	var found *Span
	root.Walk(func(s *Span) {
		if found == nil && s.Service == service {
			found = s
		}
	})
	return found
}

// UpstreamProcessing returns the sum of processing times of all services
// strictly above the given service on the trace's critical path, i.e.
// Σ_{k<i} PT_sk from Eq. (3) of the paper. The second return value reports
// whether the service appears on the critical path at all. The path is
// descended in place rather than materialized, so on a live tree a call
// allocates nothing.
//
//soravet:allow deadcode (a) reference implementation: the SCG oracle tests compare the scan's per-span upstream time against it
func (t *Trace) UpstreamProcessing(service string) (time.Duration, bool) {
	var sum time.Duration
	for s := t.Tree(); s != nil; s = s.CriticalChild() {
		if s.Service == service {
			return sum, true
		}
		sum += s.ProcessingTime()
	}
	return 0, false
}
