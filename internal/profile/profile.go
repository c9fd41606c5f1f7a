// Package profile is the latency-attribution engine of the Sora
// reproduction: it explains *where* end-to-end response time goes, per
// request and in aggregate, the analysis layer uqSim and PerfSim treat
// as the core output of a microservice simulator.
//
// # Phase taxonomy
//
// Every service visit (a trace.Record, as Trace.Records reads a completed
// trace) decomposes into seven phases:
//
//	queue    — admission-queue wait (Arrival → Start): the request sat
//	           in front of an under-provisioned soft resource.
//	cpu      — ideal CPU demand: the service time the visit would have
//	           needed on an otherwise idle pod.
//	contend  — processor-sharing inflation ("thrash"): actual on-CPU
//	           wall time minus ideal demand, the cost of running in an
//	           over-provisioned pool that floods the PS server.
//	connwait — waiting for a downstream connection-pool slot (db or
//	           client pool), off-CPU but not blocked on an in-flight RPC.
//	blocked  — waiting on downstream RPCs that are in flight.
//	retry    — waiting out retry backoff after a failed downstream
//	           attempt (the resilience layer's exponential backoff).
//	breaker  — waiting out backoff caused by circuit-breaker
//	           rejections (the call never left this service).
//
// The decomposition is exact by construction: the seven phases of a
// span sum to its wall time (End - Arrival), with any inconsistency in
// the underlying counters resolved by clamping remainders, never by
// dropping time.
//
// # Critical-path blame
//
// Blame descends the critical path over the trace's records with
// trace.CriticalChildAt and charges every wall-clock interval of the
// response time to exactly one (service, phase) pair: each span on the
// path is charged its queue/cpu/contend/connwait phases, and its
// blocked time minus the on-path child's whole wall time (the child
// accounts for its own interval recursively). Charges therefore sum
// exactly to the trace's response time — the blame invariant the tests
// enforce. All arithmetic is integer nanoseconds, and a trace is read
// only through its records, so attribution is deterministic and
// identical between in-process analysis and offline analysis of an
// exported archive.
package profile

import (
	"time"

	"sora/internal/trace"
)

// Phase identifies one slice of the latency taxonomy.
type Phase uint8

// The phases, in canonical presentation order.
const (
	PhaseQueue Phase = iota
	PhaseCPU
	PhaseContend
	PhaseConnWait
	PhaseBlocked
	PhaseRetry
	PhaseBreaker
	NumPhases int = iota
)

// phaseNames are the canonical short names used in tables, folded
// stacks, and metric labels.
var phaseNames = [NumPhases]string{"queue", "cpu", "contend", "connwait", "blocked", "retry", "breaker"}

// String returns the phase's canonical short name.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName returns the phase with the given canonical name.
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Phases is the exact seven-way decomposition of one span's wall time.
type Phases struct {
	Queue    time.Duration // admission wait (Arrival → Start)
	CPU      time.Duration // ideal CPU demand
	Contend  time.Duration // PS-contention inflation beyond the demand
	ConnWait time.Duration // waiting for a connection-pool slot
	Blocked  time.Duration // blocked on in-flight downstream RPCs
	Retry    time.Duration // waiting out retry backoff
	Breaker  time.Duration // waiting out breaker-rejection backoff
}

// Get returns the named phase's duration.
func (p Phases) Get(ph Phase) time.Duration {
	switch ph {
	case PhaseQueue:
		return p.Queue
	case PhaseCPU:
		return p.CPU
	case PhaseContend:
		return p.Contend
	case PhaseConnWait:
		return p.ConnWait
	case PhaseRetry:
		return p.Retry
	case PhaseBreaker:
		return p.Breaker
	default:
		return p.Blocked
	}
}

// spanWall returns the span's wall time clamped to be non-negative.
func spanWall(s *trace.Record) time.Duration {
	d := time.Duration(s.End - s.Arrival)
	if d < 0 {
		d = 0
	}
	return d
}

// clamp bounds v to [0, hi].
func clamp(v, hi time.Duration) time.Duration {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// SpanPhases decomposes one span into the seven phases. The phases sum
// exactly to the span's wall time: each counter is clamped against the
// remainder left by the phases before it (queue, then blocked, then
// retry and breaker backoff, then on-CPU, then ideal demand), so
// recording skew can shift time between adjacent phases but never
// create or destroy it.
func SpanPhases(s *trace.Record) Phases {
	d := spanWall(s)
	q := clamp(time.Duration(s.Start-s.Arrival), d)
	rem := d - q
	b := clamp(s.Blocked, rem)
	rem -= b
	rtr := clamp(s.RetryWait, rem)
	rem -= rtr
	brk := clamp(s.BreakerWait, rem)
	pt := rem - brk // processing: on-CPU plus connection-slot waits
	cpu := clamp(s.CPU, pt)
	conn := pt - cpu
	ideal := clamp(s.Demand, cpu)
	contend := cpu - ideal
	return Phases{Queue: q, CPU: ideal, Contend: contend, ConnWait: conn, Blocked: b, Retry: rtr, Breaker: brk}
}

// Charge is one blame assignment: this much of the trace's response
// time belongs to this service in this phase.
type Charge struct {
	Service string
	Phase   Phase
	Dur     time.Duration
}

// Blame attributes a trace's entire response time to (service, phase)
// pairs along the critical path. Zero-duration charges are omitted; the
// emitted charges sum exactly to the trace's response time (for spans
// recorded by the simulator — a hand-built trace whose on-path child
// outlives its parent's blocked window clamps at zero and can only
// over-attribute, never lose time).
//
// The charge order is deterministic: critical-path order (front-end
// first), phases in canonical order within each span.
//
//soravet:allow deadcode (a) reference implementation: the aggregator tests compare the streaming Aggregator against this per-trace blame
func Blame(t *trace.Trace) []Charge {
	recs := t.Records(nil)
	var charges []Charge
	emit := func(svc string, ph Phase, d time.Duration) {
		if d > 0 {
			charges = append(charges, Charge{Service: svc, Phase: ph, Dur: d})
		}
	}
	for i := 0; i >= 0 && i < len(recs); {
		s := &recs[i]
		next := trace.CriticalChildAt(recs, i)
		ph := SpanPhases(s)
		blocked := ph.Blocked
		if next >= 0 {
			// The on-path child accounts for its own wall time; this
			// span keeps only the residue (parallel siblings' tails,
			// network hops, earlier sequential calls).
			blocked -= spanWall(&recs[next])
			if blocked < 0 {
				blocked = 0
			}
		}
		svc := t.Names.Service(s.Service)
		emit(svc, PhaseQueue, ph.Queue)
		emit(svc, PhaseCPU, ph.CPU)
		emit(svc, PhaseContend, ph.Contend)
		emit(svc, PhaseConnWait, ph.ConnWait)
		emit(svc, PhaseBlocked, blocked)
		emit(svc, PhaseRetry, ph.Retry)
		emit(svc, PhaseBreaker, ph.Breaker)
		i = next
	}
	return charges
}
