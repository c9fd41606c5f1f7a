package trace

import (
	"slices"
	"time"

	"sora/internal/sim"
)

// Record is one span of a retained trace in its decoded form. A
// settled trace stores its spans as an encoded stream (see
// Warehouse.Add) that Records decodes into pre-order records: the
// record of a span is followed by the records of its subtree, children
// in call order, so Size replaces the child list and the depth follows
// from the walk. Service and Instance index the trace's Names table. A
// Record holds no pointer, so a reader's buffer of them is never
// scanned by the garbage collector.
type Record struct {
	Arrival sim.Time
	Start   sim.Time
	End     sim.Time

	Blocked     time.Duration
	Demand      time.Duration
	CPU         time.Duration
	RetryWait   time.Duration
	BreakerWait time.Duration

	Service  int32 // index into Names.Services
	Instance int32 // index into the Names instances; -1 for a span with no pod
	Size     int32 // records in the subtree rooted here, this one included

	Failed    bool
	Degraded  bool
	Abandoned bool
}

// Duration returns the service-visit wall time including queueing:
// departure minus arrival.
func (r *Record) Duration() time.Duration {
	return time.Duration(r.End - r.Arrival)
}

// ProcessingTime returns PT_s as defined in section 3.2 of the paper: the
// time the service itself contributed to the request (request-side plus
// response-side processing, including local queueing), excluding time
// blocked on downstream services and time waiting out retry or breaker
// backoff (which is downstream-recovery wait, not local work).
//
//soravet:allow deadcode (a) reference implementation: the SCG oracle tests and FuzzCompactTrace compute PT_s from whole records with it, which the scan records' stored PT must match
func (r *Record) ProcessingTime() time.Duration {
	return processingTime(r.Duration(), r.Blocked, r.RetryWait, r.BreakerWait)
}

// CriticalChildAt returns the index of the record the critical path
// descends into from recs[i], a pre-order record array, or -1 when
// recs[i] is the path's last span. The critical path is the chain of
// spans of maximal duration from the user request to the final response
// (the paper's "path of maximal duration that starts with the user
// request and ends with the final response"): from the root it descends
// at each span into the child with the largest wall-time duration.
//
// Tie-breaking rule: when two children have exactly equal wall-time
// durations, the earliest-dispatched child (the first in call order)
// wins. Dispatch order is deterministic in the simulator, so the
// critical path — and everything derived from it, such as blame
// attribution — is stable across runs of the same seed.
//
// Abandoned children (attempts the caller timed out) are skipped: their
// span can end after the parent's, so descending into one would break
// the containment the blame telescoping relies on; the interval the
// orphan occupied inside the parent is the parent's blocked residue.
func CriticalChildAt(recs []Record, i int) int {
	next, nextDur := -1, time.Duration(-1)
	for c, end := i+1, i+int(recs[i].Size); c < end; c += int(recs[c].Size) {
		if recs[c].Abandoned {
			continue
		}
		if d := recs[c].Duration(); d > nextDur {
			next, nextDur = c, d
		}
	}
	return next
}

// Names is the append-only table of service and instance names that
// Record ids index. An id never changes once handed out, so traces
// stored earlier stay valid while the table grows. The cluster owns
// one table for its run, adds each pod as it creates it, and every
// trace it completes points to it.
type Names struct {
	services  []string
	instances []string
}

// NewNames returns a table whose first service ids are the positions of
// services, which must be distinct.
func NewNames(services []string) *Names {
	return &Names{services: slices.Clone(services)}
}

// Services returns the service names in id order. The result is a
// read-only view; the table only grows (ImportAll interns the services
// it reads), it never rewrites.
func (n *Names) Services() []string { return n.services[:len(n.services):len(n.services)] }

// Service returns the name of service id.
func (n *Names) Service(id int32) string { return n.services[id] }

// Instance returns the name of instance id, or "" for -1, the id of a
// span with no pod.
func (n *Names) Instance(id int32) string {
	if id < 0 {
		return ""
	}
	return n.instances[id]
}

// AddInstance appends a pod name and returns its id. Pod names are
// unique within a run, so the table never looks one up.
func (n *Names) AddInstance(name string) int32 {
	n.instances = append(n.instances, name)
	return int32(len(n.instances) - 1)
}

// service returns the id of service name, assigning the next one on
// first use. A linear search: a table holds a few dozen services.
func (n *Names) service(name string) int32 {
	for id, s := range n.services {
		if s == name {
			return int32(id)
		}
	}
	n.services = append(n.services, name)
	return int32(len(n.services) - 1)
}

// appendRecords appends the pre-order records of the tree under s to
// dst, copying each span's ids.
func appendRecords(dst []Record, s *Span) []Record {
	i := len(dst)
	// Write the fields in place: appending a Record literal builds it
	// on the stack and copies it over, which costs a third of the walk.
	dst = slices.Grow(dst, 1)[:i+1]
	r := &dst[i]
	r.Arrival, r.Start, r.End = s.Arrival, s.Start, s.End
	r.Blocked, r.Demand, r.CPU = s.Blocked, s.Demand, s.CPU
	r.RetryWait, r.BreakerWait = s.RetryWait, s.BreakerWait
	r.Service, r.Instance = s.service, s.instance
	r.Failed, r.Degraded, r.Abandoned = s.Failed, s.Degraded, s.Abandoned
	for _, c := range s.Children {
		dst = appendRecords(dst, c)
	}
	dst[i].Size = int32(len(dst) - i)
	return dst
}

// Records returns the trace's spans as pre-order records whose ids index
// t.Names. This is the one way any reader after completion sees a
// trace. The records are written into *scratch, which is grown as needed
// and kept for the next call (a nil scratch allocates), so they stay
// valid only until the next call with the same scratch. A trace the
// warehouse stored settled decodes its stream; a trace still holding its live tree — one
// stored unsettled, or built outside the cluster — is read from the
// tree. A trace stored in its scan form has no whole records, and
// Records panics on it with a message naming Cluster.RetainTraces.
func (t *Trace) Records(scratch *[]Record) []Record {
	var buf []Record
	if scratch != nil {
		buf = *scratch
	}
	switch {
	case t.Root != nil:
		buf = appendRecords(buf[:0], t.Root)
	case len(t.enc) > 0 && t.scanForm:
		panic(errScanForm)
	case len(t.enc) > 0:
		buf = decodeRecords(buf, t.enc)
	default:
		t.checkReleased()
		return nil
	}
	if scratch != nil {
		*scratch = buf
	}
	return buf
}

// Depths calls fn for every record of recs, a pre-order record array,
// with the record's index and its depth below recs[0].
func Depths(recs []Record, fn func(i, depth int)) {
	var ends []int // subtree ends of the open ancestors
	for i := range recs {
		for len(ends) > 0 && ends[len(ends)-1] <= i {
			ends = ends[:len(ends)-1]
		}
		fn(i, len(ends))
		if recs[i].Size > 1 {
			ends = append(ends, i+int(recs[i].Size))
		}
	}
}
