package trace

import (
	"slices"
	"time"

	"sora/internal/sim"
)

// Record is one span of a retained trace in its decoded form. A
// settled trace stores its spans as an encoded stream (see Compact) that
// Records decodes into pre-order records: the record of a span is
// followed by the records of its subtree, children in call order, so
// Size replaces the child list and the depth follows from the walk.
// Service and Instance index the trace's Names table. A Record holds no
// pointer, so a reader's buffer of them is never scanned by the garbage
// collector.
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

// Duration is Span.Duration of the recorded span.
func (r *Record) Duration() time.Duration {
	return time.Duration(r.End - r.Arrival)
}

// ProcessingTime is Span.ProcessingTime of the recorded span.
func (r *Record) ProcessingTime() time.Duration {
	return processingTime(r.Duration(), r.Blocked, r.RetryWait, r.BreakerWait)
}

// CriticalChildAt returns the index of the record the critical path
// descends into from recs[i], a pre-order record array — the longest
// non-abandoned child, earliest-dispatched on ties, as
// Span.CriticalChild — or -1 when recs[i] is the path's last span.
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
// Record ids index. An id never changes once handed out, so records
// compacted earlier stay valid while the table grows. The cluster owns
// one table for its run, adds each pod as it creates it, and every
// trace it completes points to it.
type Names struct {
	services  []string
	instances []string
}

// NewNames returns a table whose first service ids are the positions of
// services, which must be distinct.
func NewNames(services []string) *Names {
	//soravet:allow hotpath once per table: the cluster builds its table in New and every trace it compacts shares it; only a trace built without one gets its own
	return &Names{services: slices.Clone(services)}
}

// Services returns the service names in id order. The result is a
// read-only view; later interning appends to the table, never rewrites.
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
	n.services = append(n.services, name) //soravet:allow hotpath first use of a service name only: the table holds a few dozen
	return int32(len(n.services) - 1)
}

// appendRecords appends the pre-order records of the tree under s to
// dst. A stamped span's ids are copied; a span built without them (see
// Span.SetIDs) has its service interned by name and no instance.
func (n *Names) appendRecords(dst []Record, s *Span) []Record {
	i := len(dst)
	// Write the fields in place: appending a Record literal builds it
	// on the stack and copies it over, which costs a third of the walk.
	dst = slices.Grow(dst, 1)[:i+1]
	r := &dst[i]
	r.Arrival, r.Start, r.End = s.Arrival, s.Start, s.End
	r.Blocked, r.Demand, r.CPU = s.Blocked, s.Demand, s.CPU
	r.RetryWait, r.BreakerWait = s.RetryWait, s.BreakerWait
	if s.hasIDs {
		r.Service, r.Instance = s.service, s.instance
	} else {
		r.Service, r.Instance = n.service(s.Service), -1
	}
	r.Failed, r.Degraded, r.Abandoned = s.Failed, s.Degraded, s.Abandoned
	for _, c := range s.Children {
		dst = n.appendRecords(dst, c)
	}
	dst[i].Size = int32(len(dst) - i)
	return dst
}

// tree materializes the span tree recs encode, its root at depth 0.
// All spans share one allocation; a leaf keeps a nil child list.
func (n *Names) tree(recs []Record) *Span {
	if len(recs) == 0 {
		return nil
	}
	spans := make([]Span, len(recs))
	n.fill(spans, recs, 0, 0)
	return &spans[0]
}

// fill materializes recs[i] and its subtree into spans[i:] at depth.
func (n *Names) fill(spans []Span, recs []Record, i int, depth int32) {
	r := &recs[i]
	s := &spans[i]
	*s = Span{
		Service:     n.services[r.Service],
		Arrival:     r.Arrival,
		Start:       r.Start,
		End:         r.End,
		Blocked:     r.Blocked,
		Demand:      r.Demand,
		CPU:         r.CPU,
		RetryWait:   r.RetryWait,
		BreakerWait: r.BreakerWait,
		Failed:      r.Failed,
		Degraded:    r.Degraded,
		Abandoned:   r.Abandoned,
		hasIDs:      true,
		Depth:       depth,
		service:     r.Service,
		instance:    r.Instance,
	}
	end := i + int(r.Size)
	for c := i + 1; c < end; c += int(recs[c].Size) {
		s.Children = append(s.Children, &spans[c])
		n.fill(spans, recs, c, depth+1)
	}
}

// names returns the trace's name table, giving a trace built without
// one a table of its own.
func (t *Trace) names() *Names {
	if t.Names == nil {
		t.Names = NewNames(nil)
	}
	return t.Names
}

// Records returns the trace's spans as pre-order records whose ids index
// t.Names. This is how every reader after completion sees a trace. The
// records are written into *scratch, which is grown as needed and kept
// for the next call (a nil scratch allocates), so they stay valid only
// until the next call with the same scratch. A compacted trace decodes
// its stream; a trace still holding its live tree — one stored
// unsettled, or built outside the cluster — is read from the tree,
// interning any new names, and a trace built without a table gets one
// of its own.
func (t *Trace) Records(scratch *[]Record) []Record {
	var buf []Record
	if scratch != nil {
		buf = *scratch
	}
	switch {
	case t.Root != nil:
		buf = t.names().appendRecords(buf[:0], t.Root)
	case len(t.enc) > 0:
		buf = decodeRecords(buf, t.enc)
	default:
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

// chunkBytes is the size of a fresh stream chunk (see Compact): at
// about 22 B a span, 64 KiB holds the streams of a hundred or so
// settled Social Network traces.
const chunkBytes = 64 << 10

// Compact replaces the trace's live tree with its encoded stream (see
// stream.go): it encodes the tree's spans into *scratch, copies them,
// after the trace header and before streamPad zero bytes, onto the end
// of *chunk and drops Root. The trace keeps a full-slice-capped view of
// the chunk, so no later append to the chunk can reach its bytes. When
// the chunk has no room for the stream, *chunk becomes a fresh chunk of
// chunkBytes bytes, or of the stream's length if that is larger; the
// old chunk is never written again and the garbage collector frees it
// once no trace refers to it. The caller owns the released spans; the
// trace no longer refers to any of them. Only a trace that can no
// longer change may be compacted.
//
//soravet:hotpath TestCompactIntoChunkAllocFree once per settled request: compacting into a chunk with room allocates nothing once the scratch buffer has grown and the names are interned
func (t *Trace) Compact(scratch, chunk *[]byte) {
	if t.Root == nil {
		return
	}
	body, spans := t.names().appendSpans((*scratch)[:0], t.Root, t.Root.End)
	*scratch = body
	var head [1 + 2*8]byte // the codes byte and two values stored as words
	h := head[:putHeader(head[:], t.Root.End, spans)]
	need := len(h) + len(body) + streamPad
	a := *chunk
	if cap(a)-len(a) < need {
		a = make([]byte, 0, max(chunkBytes, need)) //soravet:allow hotpath chunk refill: once per chunkBytes bytes, never for a trace that fits the chunk (TestCompactIntoChunkAllocFree)
	}
	n := len(a)
	a = append(append(a, h...), body...) //soravet:allow hotpath fits: the chunk was checked or refilled for the stream's length above
	a = a[:n+need]                       // the pad: bytes of the chunk never written, so zero
	t.enc = a[n:len(a):len(a)]
	*chunk = a
	t.Root = nil
}

// Tree returns the trace's span tree: the live Root, or for a compacted
// trace a tree materialized from its records, fresh on every call.
// Depths in a materialized tree count from 0 at the root.
func (t *Trace) Tree() *Span {
	if t.Root != nil {
		return t.Root
	}
	if len(t.enc) == 0 {
		return nil
	}
	return t.Names.tree(t.Records(nil))
}
