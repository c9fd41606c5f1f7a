package trace

import (
	"fmt"
	"math"
	"slices"
	"time"

	"sora/internal/sim"
)

// Warehouse is the in-memory trace store the Concurrency Estimator pulls
// from. It keeps completed traces for a bounded retention window of
// virtual time and evicts older ones lazily on Add. Traces are appended
// in completion order, so eviction and range queries are simple
// prefix/suffix operations on a deque. A cluster builds its warehouse
// only once a reader declares it (Cluster.RetainTraces, DESIGN.md §13
// "Declared trace retention"); until then it has none, and a nil
// Warehouse answers Len and Stats with zeros while Window panics.
//
// The warehouse holds no header object per trace (DESIGN.md §13
// "Retained traces"). Each trace is one pointer-free entry in a block
// deque: its ID, type id, completion time and where its spans are. A
// settled trace's spans are an encoded stream in one of the warehouse's
// chunks, which it fills and retires in FIFO order and recycles once
// their last trace is evicted. The stream is the whole one (stream.go),
// or in a warehouse built by NewScanWarehouse the scan form (scan.go),
// which keeps only what Trace.Scan reads (DESIGN.md §13 "Declared trace
// form"). An unsettled trace keeps its live tree in a small side table,
// because orphaned work may still change it.
//
// The paper offloads this role to a Neo4j graph database plus per-service
// MongoDB stores; an indexed in-process deque answers the one query the
// estimator makes (the traces completing in a window) without the
// storage substrate.
type Warehouse struct {
	retention time.Duration
	added     uint64
	evicted   uint64
	// scan selects the scan form for the settled traces' streams.
	scan bool

	// names is the table every stored trace's ids index, adopted from
	// the first trace stored; types the request-type names entries
	// index.
	names *Names
	types []string

	// The entries: entry i of the live deque is blocks[(head+i) >>
	// entryShift] at slot (head+i) & entryMask, i < n. spare is a
	// retired block awaiting reuse.
	blocks fifo[*entryBlock]
	head   int
	n      int
	spare  *entryBlock

	// chunks holds the stream chunks oldest first; the last one takes
	// the next settled trace, and chunks[0] has sequence number
	// chunkBase. free holds retired chunks awaiting reuse, never more
	// than are live, so the chunks held never exceed their earlier
	// high-water mark. scratch is the buffer a tree is encoded into
	// before its stream is copied into a chunk.
	chunks    fifo[chunk]
	chunkBase uint32
	free      [][]byte
	scratch   []byte

	// unsettled holds the ascending sequence numbers of retained traces
	// stored with AddUnsettled and roots their live trees; eviction drops
	// their prefix with the deque's. An unsettled entry's off is the
	// position of its root counted from the first unsettled trace ever
	// stored, of which rootBase have been evicted.
	unsettled fifo[uint64]
	roots     fifo[*Span]
	rootBase  uint32
}

// entry is the index record of one retained trace. It holds no
// pointer. A settled trace's stream is bytes [off, off+n) of the chunk
// with sequence number chunk; an unsettled trace has n 0 and its live
// root at position off of the unsettled table.
type entry struct {
	id    ID
	at    sim.Time // completion time
	chunk uint32
	off   uint32
	n     uint32
	typ   uint32 // index into Warehouse.types
}

// entryShift is log2 of the entries in a block: 512 entries of 32 B, a
// 16 KiB block, an ordinary size-classed allocation.
const (
	entryShift = 9
	entryMask  = 1<<entryShift - 1
)

type entryBlock [1 << entryShift]entry

// chunk is one stream chunk and the sequence number of the last trace
// stored in it, which decides when FIFO eviction has emptied it.
type chunk struct {
	buf  []byte
	last uint64
}

// chunkBytes is the size of a stream chunk: at about 22 B a span in the
// whole form, 64 KiB holds the streams of a hundred or so settled Social
// Network traces, and more than three times as many in the scan form. A
// stream longer than that gets a chunk of its own length.
const chunkBytes = 64 << 10

// fifo is a slice-backed queue: pop advances a head index and clears
// the popped slots, and once the dead prefix passes half the slice the
// live suffix moves to the front, so both ends cost O(1) amortized.
type fifo[T any] struct {
	s    []T
	head int
}

func (q *fifo[T]) push(v T) { q.s = append(q.s, v) } //soravet:allow hotpath deque append: the array keeps its capacity across pops, so it grows only with the live size

// live returns the queued elements, oldest first.
func (q *fifo[T]) live() []T { return q.s[q.head:] }

// pop drops the n oldest elements.
func (q *fifo[T]) pop(n int) {
	clear(q.s[q.head : q.head+n])
	q.head += n
	if q.head > len(q.s)/2 {
		k := copy(q.s, q.s[q.head:])
		clear(q.s[k:])
		q.s = q.s[:k]
		q.head = 0
	}
}

// DefaultRetention bounds warehouse memory when the caller does not
// specify a window, and caps the reach a cluster's readers declare
// (Cluster.RetainTraces). Three minutes matches the longest
// metrics-collection window used by the SCG model.
const DefaultRetention = 3 * time.Minute

// NewWarehouse returns a warehouse retaining traces whose completion time
// is within the given window of the most recent Add. A non-positive
// retention selects DefaultRetention. No block or chunk is allocated
// until the first trace is stored.
func NewWarehouse(retention time.Duration) *Warehouse {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Warehouse{retention: retention}
}

// NewScanWarehouse returns a warehouse like NewWarehouse's that stores
// each settled trace in its scan form: the traces it hands out answer
// Scan, ResponseTime, CompletedAt and Degraded, and their Records panic.
func NewScanWarehouse(retention time.Duration) *Warehouse {
	w := NewWarehouse(retention)
	w.scan = true
	return w
}

// KeepWhole makes the warehouse store whole traces, which Records reads.
// On a warehouse that already does it does nothing. A scan-form
// warehouse that has stored a trace cannot switch: its history would
// lack what a whole-trace reader reads, so that is an error.
func (w *Warehouse) KeepWhole() error {
	if !w.scan {
		return nil
	}
	if w.added > 0 {
		return fmt.Errorf("trace: whole traces declared after %d were stored in their scan form", w.added)
	}
	w.scan = false
	return nil
}

// Widen raises the retention to d; a d no longer than the retention
// leaves it as it is. Widening once a trace has been evicted is an
// error, since the wider window would silently lack that history.
func (w *Warehouse) Widen(d time.Duration) error {
	if d <= w.retention {
		return nil
	}
	if w.evicted > 0 {
		return fmt.Errorf("trace: retention widened to %v after traces were evicted at %v", d, w.retention)
	}
	w.retention = d
	return nil
}

// Add stores a completed trace that can no longer change and evicts any
// traces that have fallen out of the retention window relative to this
// trace's completion time. Traces must be added in nondecreasing
// completion order (the simulator guarantees this), and every trace a
// warehouse stores must index one name table (a trace without one is
// given the warehouse's). Add encodes the live tree under t.Root into
// the warehouse's chunks and points t's stream at the stored bytes, so
// Retain can copy them; t itself is not kept.
//
//soravet:hotpath TestWarehouseAddAllocFree once per settled request: once chunks recycle and the scratch buffer, the entry blocks and the type table have grown, storing a trace allocates nothing
func (w *Warehouse) Add(t *Trace) { w.add(t, false) }

// AddUnsettled stores a completed trace that may still change: a call
// under it timed out and the orphaned callee may yet append spans to it
// or stamp the ones it has. The warehouse keeps its live tree, and
// readers that cache what they derive from traces must reread these; see
// Unsettled.
func (w *Warehouse) AddUnsettled(t *Trace) { w.add(t, true) }

func (w *Warehouse) add(t *Trace, unsettled bool) {
	if t == nil || t.Root == nil {
		return
	}
	if w.names == nil {
		w.names = t.Names
	}
	switch {
	case t.Names == nil:
		t.Names = w.names
	case t.Names != w.names:
		panic("trace: a warehouse's traces must share one name table")
	}
	e := w.push()
	e.id, e.at, e.typ = t.ID, t.Root.End, w.typeID(t.Type)
	if unsettled {
		e.off, e.n = w.rootBase+uint32(len(w.roots.live())), 0
		w.unsettled.push(w.added)
		w.roots.push(t.Root)
	} else {
		e.chunk, e.off, e.n = w.store(t)
	}
	w.added++
	cutoff := t.Root.End - w.retention
	if cutoff > t.Root.End {
		cutoff = math.MinInt64 // the subtraction wrapped
	}
	w.evictBefore(cutoff)
}

// push appends a blank entry to the deque and returns it.
func (w *Warehouse) push() *entry {
	p := w.head + w.n
	if p>>entryShift == len(w.blocks.live()) {
		b := w.spare
		if b == nil {
			b = new(entryBlock) //soravet:allow hotpath block refill on a spare miss: once per 512 traces, and only while the live set grows past its largest size
		}
		w.spare = nil
		w.blocks.push(b)
	}
	w.n++
	return &w.blocks.live()[p>>entryShift][p&entryMask]
}

// at returns entry i of the live deque.
func (w *Warehouse) at(i int) *entry {
	p := w.head + i
	return &w.blocks.live()[p>>entryShift][p&entryMask]
}

// typeID returns the id of request type name, assigning the next one on
// first use. A linear search: a run has a handful of request types.
func (w *Warehouse) typeID(name string) uint32 {
	for i, s := range w.types {
		if s == name {
			return uint32(i)
		}
	}
	w.types = append(w.types, name) //soravet:allow hotpath first use of a request type only: a run has a handful
	return uint32(len(w.types) - 1)
}

// store encodes t's live tree in the warehouse's form (see stream.go
// and scan.go), copies the stream — trace header, spans, then for the
// whole form streamPad zero bytes — onto the end of the newest chunk,
// opening one if it has no room, and returns where the stream is. t's
// stream becomes a full-slice-capped view of the stored bytes.
func (w *Warehouse) store(t *Trace) (seq, off, n uint32) {
	var head [scanHeaderBytes]byte // holds either form's header
	var h, body []byte
	var spans int
	pad := 0
	if w.scan {
		body, spans = appendScanSpans(w.scratch[:0], t.Root, true)
		h = head[:putScanHeader(head[:], t.Root, spans)]
	} else {
		body, spans = appendSpans(w.scratch[:0], t.Root, t.Root.End)
		h = head[:putHeader(head[:], t.Root.End, spans)]
		pad = streamPad
	}
	w.scratch = body
	need := len(h) + len(body) + pad
	c := w.room(need)
	k := len(c.buf)
	a := append(append(c.buf, h...), body...) //soravet:allow hotpath fits: room returned a chunk with need bytes free
	a = a[:k+need]
	clear(a[k+need-pad:]) // a recycled chunk holds old bytes
	c.buf = a
	c.last = w.added
	t.enc, t.scanForm = a[k:len(a):len(a)], w.scan
	return w.chunkBase + uint32(len(w.chunks.live())-1), uint32(k), uint32(need)
}

// room returns the newest chunk if it has need bytes free, or else opens
// a chunk — a retired one when the free list has one and need fits it —
// and returns that.
func (w *Warehouse) room(need int) *chunk {
	if live := w.chunks.live(); len(live) > 0 {
		if c := &live[len(live)-1]; cap(c.buf)-len(c.buf) >= need {
			return c
		}
	}
	var buf []byte
	if k := len(w.free) - 1; k >= 0 && need <= chunkBytes {
		buf = w.free[k]
		w.free[k] = nil
		w.free = w.free[:k]
	} else {
		buf = make([]byte, 0, max(chunkBytes, need)) //soravet:allow hotpath chunk refill on a free-list miss: once per chunkBytes bytes, and only until FIFO eviction starts retiring chunks (TestWarehouseAddAllocFree)
	}
	w.chunks.push(chunk{buf: buf})
	live := w.chunks.live()
	return &live[len(live)-1]
}

// evictBefore drops the traces completing before cutoff, the unsettled
// trees among them, and every chunk no retained trace is in but the
// newest. Its one caller is add, whose cutoff lies a positive retention
// before the trace it just stored, so that trace always survives and the
// deque never empties.
func (w *Warehouse) evictBefore(cutoff sim.Time) {
	k := 0
	for k < w.n && w.at(k).at < cutoff {
		k++
	}
	if k == 0 {
		return
	}
	w.evicted += uint64(k)
	w.n -= k
	w.head += k
	if dead := w.head >> entryShift; dead > 0 {
		w.spare = w.blocks.live()[dead-1]
		w.blocks.pop(dead)
		w.head &= entryMask
	}
	u := w.unsettled.live()
	n := 0
	for n < len(u) && u[n] < w.evicted {
		n++
	}
	w.unsettled.pop(n)
	w.roots.pop(n)
	w.rootBase += uint32(n)
	live := w.chunks.live()
	n = 0
	for n < len(live)-1 && live[n].last < w.evicted {
		n++
	}
	// Keep at most as many retired chunks as stay live: a burst
	// eviction's chunks then serve the regrowth after it, and a store
	// that shrinks hands the rest back to the heap.
	keep := len(live) - n
	for _, c := range live[:n] {
		if cap(c.buf) == chunkBytes && len(w.free) < keep {
			w.free = append(w.free, c.buf[:0]) //soravet:allow hotpath the free list holds at most as many chunks as are live, so it grows only with the live set's high-water mark
		}
	}
	if len(w.free) > keep {
		clear(w.free[keep:])
		w.free = w.free[:keep]
	}
	w.chunks.pop(n)
	w.chunkBase += uint32(n)
}

// Len returns the number of retained traces: none for a nil warehouse,
// a cluster's before a reader declares it (Cluster.RetainTraces).
func (w *Warehouse) Len() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Added returns the total number of traces ever stored.
//
//soravet:allow deadcode (b) cross-package observer: core scan tests observe the warehouse add count through it
func (w *Warehouse) Added() uint64 { return w.added }

// WarehouseStats is a point-in-time summary of warehouse churn, exposed
// for telemetry counters and capacity diagnostics.
type WarehouseStats struct {
	Added    uint64 // traces ever stored
	Evicted  uint64 // traces dropped out of the retention window
	Retained int    // traces currently held
}

// Stats returns the warehouse's churn counters and current size, all
// zero for a nil warehouse.
func (w *Warehouse) Stats() WarehouseStats {
	if w == nil {
		return WarehouseStats{}
	}
	return WarehouseStats{Added: w.added, Evicted: w.evicted, Retained: w.Len()}
}

// View is a run of retained traces in completion order, as Window
// returns it. It is a value and reading it allocates nothing. It stays
// valid, and so do the traces At returns, until an Add evicts its
// traces: eviction recycles the chunks their streams are in.
type View struct {
	w     *Warehouse
	first uint64
	n     int
}

// Len returns the number of traces in the view.
func (v View) Len() int { return v.n }

// First returns the sequence number of the view's first trace, its
// position in the warehouse's add order; the i-th trace has First()+i.
func (v View) First() uint64 { return v.first }

// At returns the i-th trace of the view. A settled trace's stream is a
// view of the warehouse's chunk; an unsettled trace carries its live
// tree. It panics if the trace has been evicted since the view was
// taken.
func (v View) At(i int) Trace {
	if uint(i) >= uint(v.n) {
		panic("trace: view index out of range")
	}
	w := v.w
	seq := v.first + uint64(i)
	if seq < w.evicted {
		panic("trace: view read after its traces were evicted")
	}
	e := w.at(int(seq - w.evicted))
	t := Trace{ID: e.id, Type: w.types[e.typ], Names: w.names}
	if e.n == 0 {
		t.Root = w.roots.live()[e.off-w.rootBase]
		return t
	}
	buf := w.chunks.live()[e.chunk-w.chunkBase].buf
	t.enc, t.scanForm = buf[e.off:e.off+e.n:e.off+e.n], w.scan
	return t
}

// Window returns the retained traces whose completion time lies in
// [since, until) as a view of the deque. On a nil warehouse it panics:
// a cluster stores no trace until a reader declares one, and an empty
// window would pass for a quiet one.
func (w *Warehouse) Window(since, until sim.Time) View {
	if w == nil {
		panic("trace: window read from a cluster that keeps no traces; call Cluster.RetainTraces before the run")
	}
	lo := w.lowerBound(since)
	hi := max(lo, w.lowerBound(until))
	return View{w: w, first: w.evicted + uint64(lo), n: hi - lo}
}

// Unsettled returns, in ascending order, the sequence numbers in
// [lo, hi) of retained traces stored with AddUnsettled. The result is a
// read-only view, valid until the next Add or AddUnsettled.
func (w *Warehouse) Unsettled(lo, hi uint64) []uint64 {
	u := w.unsettled.live()
	i, _ := slices.BinarySearch(u, lo)
	j, _ := slices.BinarySearch(u, hi)
	return u[i:j:j]
}

// lowerBound returns the live index of the first trace completing at or
// after t.
func (w *Warehouse) lowerBound(t sim.Time) int {
	lo, hi := 0, w.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.at(mid).at < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
