package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sora/internal/sim"
)

// compactReader hands out fuzz bytes, then zeros once they run out.
type compactReader struct {
	data  []byte
	spans int
}

func (r *compactReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// compactMaxSpans bounds a decoded tree.
const compactMaxSpans = 256

// decodeTree turns bytes into a span tree with the coverage of
// randomSpanTree and more: each span takes five bytes — service (four
// names, so services repeat), instance (none, as for a refused visit, or
// one of two replicas; stamped as ids of decodeNames), timing (1–4 ms, so equal-duration siblings are
// common, and the arrival offset), flags (Abandoned on a child,
// Failed or Degraded, and the blocked share) and children
// (0–3, at most four levels deep). With the children byte's high bit
// set the first call is retried: a failed attempt of the same service,
// then the attempt that answered.
func decodeTree(r *compactReader, arrival sim.Time, depth int) *Span {
	r.spans++
	services := decodeNames.Services()
	svc, inst, timing, flags, kids := r.next(), r.next(), r.next(), r.next(), r.next()
	dur := time.Duration(1+timing%4) * time.Millisecond
	s := &Span{
		Arrival:     arrival + sim.Time(timing/4%3)*sim.Time(time.Millisecond),
		Blocked:     dur * time.Duration(flags>>4%4) / 4,
		Demand:      time.Duration(timing) * time.Microsecond,
		CPU:         time.Duration(svc) * time.Microsecond,
		RetryWait:   time.Duration(flags>>6) * time.Microsecond,
		BreakerWait: time.Duration(inst>>4) * time.Microsecond,
		Abandoned:   depth > 0 && flags&1 != 0,
		Failed:      flags&6 == 4,
		Degraded:    flags&6 == 6,
	}
	// Pods a-0, a-1, b-0, ... have ids 0, 1, 2, ... in decodeNames.
	pod := int32(-1)
	if k := inst % 3; k > 0 {
		pod = int32(svc%len(services)*2 + k - 1)
	}
	s.SetIDs(int32(svc%len(services)), pod)
	s.Start = s.Arrival + sim.Time(timing%2)*sim.Time(time.Millisecond)
	s.End = s.Arrival + sim.Time(dur)
	if depth < 4 {
		for k := kids % 4; k > 0 && r.spans < compactMaxSpans; k-- {
			c := decodeTree(r, s.Arrival, depth+1)
			if kids&0x80 != 0 && len(s.Children) == 0 {
				// A retried call: the failed first attempt, then its retry.
				failed := *c
				failed.Children = nil
				failed.Failed = true
				s.Children = append(s.Children, &failed)
				r.spans++
			}
			s.Children = append(s.Children, c)
		}
	}
	return s
}

// decodeNames is the table decodeTree's ids index: services a–d, each
// with pods "-0" and "-1".
var decodeNames = newDecodeNames()

// newDecodeNames returns a fresh table holding decodeNames' names.
func newDecodeNames() *Names {
	n := NewNames([]string{"a", "b", "c", "d"})
	for _, svc := range n.Services() {
		n.AddInstance(svc + "-0")
		n.AddInstance(svc + "-1")
	}
	return n
}

// stretchTree applies the stretches mode selects to the tree under
// root, reading what they need from r, and returns the tree's root. The
// stretches take the codec to its edges:
//
//	1:  shift every time by MinInt64, MaxInt64 or an int64 read from r,
//	    so differences wrap;
//	2:  turn every duration negative or extreme: Start after End,
//	    negative Blocked, Demand and waits, CPU − Demand overflowing;
//	8:  hang the tree under a chain of 40 ancestors, deeper than the
//	    decoder's fixed stack;
//	16: give the root 300 more leaves, a child count of two bytes.
//
// Bit 4 selects nothing.
func stretchTree(r *compactReader, root *Span, mode int) *Span {
	if mode&1 != 0 {
		var base int64
		switch r.next() % 3 {
		case 0:
			base = math.MinInt64
		case 1:
			base = math.MaxInt64
		default:
			for range 8 {
				base = base<<8 | int64(r.next())
			}
		}
		walk(root, func(s *Span) {
			s.Arrival += sim.Time(base)
			s.Start += sim.Time(base)
			s.End += sim.Time(base)
		})
	}
	if mode&2 != 0 {
		walk(root, func(s *Span) {
			s.Start, s.End = s.End, s.Start
			s.Blocked, s.Demand = -s.Blocked, -s.Demand-1
			s.CPU = math.MaxInt64 - s.CPU
			s.RetryWait, s.BreakerWait = -s.RetryWait, math.MinInt64
		})
	}
	if mode&16 != 0 {
		for i := range 300 {
			leaf := &Span{Arrival: root.Arrival + sim.Time(i), End: root.Arrival + sim.Time(2*i)}
			leaf.SetIDs(1, int32(i%3)-1)
			root.Children = append(root.Children, leaf)
		}
	}
	if mode&8 != 0 {
		for i := range 40 {
			up := &Span{Arrival: root.Arrival - sim.Time(i), End: root.End + sim.Time(i), Children: []*Span{root}}
			up.SetIDs(2, 4)
			root = up
		}
	}
	return root
}

// spanDepths returns the nesting depth of every span of the tree under
// root, in pre-order.
func spanDepths(root *Span) []int {
	var depths []int
	var descend func(s *Span, d int)
	descend = func(s *Span, d int) {
		depths = append(depths, d)
		for _, c := range s.Children {
			descend(c, d+1)
		}
	}
	descend(root, 0)
	return depths
}

// FuzzCompactTrace decodes bytes into a span tree, stretches it with
// the byte after the tree (see stretchTree) and compacts it: the
// compacted trace must decode to exactly the live tree's records, into
// a fresh buffer as into one holding another trace's, with the depths
// of the tree's own nesting; and every Trace accessor and the export
// bytes must agree between the live and the compacted form. The tree is
// also stored in its scan form: Scan of the live tree, of the whole
// stream and of the scan stream must be the projection of the live
// records onto the scan fields, with CriticalChildAt's path marked, and
// every accessor of the scan form must answer as the live tree does or
// panic with a message naming RetainTraces.
func FuzzCompactTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0x83, 1, 2, 3, 0x11, 0, 2, 0, 3, 1, 2})
	// A root with two leaves (15 bytes), then the stretch byte.
	tree := []byte{0, 1, 5, 0x30, 2, 1, 2, 3, 0x51, 0, 2, 0, 7, 0x1c, 0}
	for _, tail := range [][]byte{
		{1, 0},                            // MinInt64 timestamps
		{1, 1},                            // MaxInt64 timestamps
		{3, 2, 0x80, 0, 0, 0, 0, 0, 0, 9}, // negative durations near MinInt64
		{24},                              // deep and wide
		{8},                               // deep
		{16},                              // wide
		{31, 1},                           // all at once
	} {
		f.Add(append(slices.Clone(tree), tail...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &compactReader{data: data}
		root := stretchTree(r, decodeTree(r, 0, 0), r.next())
		live := &Trace{ID: 7, Type: "t", Root: root, Names: decodeNames}
		compact := stored(&Trace{ID: 7, Type: "t", Root: root, Names: decodeNames})
		if compact.Root != nil {
			t.Fatal("the stored trace kept the live tree")
		}
		want := live.Records(nil)
		if got := compact.Records(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded records differ from the live tree's:\n got %+v\nwant %+v", got, want)
		}
		dirty := make([]Record, len(want)+3)
		for i := range dirty {
			dirty[i] = Record{Arrival: -1, Start: 2, End: 3, Blocked: 4, Demand: 5, CPU: 6, RetryWait: 7, BreakerWait: 8,
				Service: 9, Instance: 10, Size: 11, Failed: true, Degraded: true, Abandoned: true}
		}
		if got := compact.Records(&dirty); !reflect.DeepEqual(got, want) {
			t.Fatalf("records decoded over another trace's differ from the live tree's:\n got %+v\nwant %+v", got, want)
		}
		if got, want := compact.ResponseTime(), live.ResponseTime(); got != want {
			t.Errorf("ResponseTime = %v, live %v", got, want)
		}
		if got, want := compact.CompletedAt(), live.CompletedAt(); got != want {
			t.Errorf("CompletedAt = %v, live %v", got, want)
		}
		if got, want := compact.Degraded(), live.Degraded(); got != want {
			t.Errorf("Degraded = %v, live %v", got, want)
		}
		if got, want := compact.CriticalPathServices(), live.CriticalPathServices(); !slices.Equal(got, want) {
			t.Errorf("CriticalPathServices = %v, live %v", got, want)
		}
		for _, svc := range []string{"a", "b", "c", "d", "absent"} {
			gotUp, gotOK := compact.UpstreamProcessing(svc, nil)
			wantUp, wantOK := live.UpstreamProcessing(svc, nil)
			if gotUp != wantUp || gotOK != wantOK {
				t.Errorf("UpstreamProcessing(%q) = (%v, %v), live (%v, %v)", svc, gotUp, gotOK, wantUp, wantOK)
			}
		}
		var a, b bytes.Buffer
		if err := Export(&a, live); err != nil {
			t.Fatal(err)
		}
		if err := Export(&b, compact); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("export differs:\n live    %s compact %s", a.Bytes(), b.Bytes())
		}
		// The depths the walk derives are the spans' nesting depths.
		depths := spanDepths(root)
		Depths(compact.Records(nil), func(i, depth int) {
			if depth != depths[i] {
				t.Errorf("record %d at depth %d, span depth %d", i, depth, depths[i])
			}
		})

		onPath := make([]bool, len(want))
		for i := 0; i >= 0; i = CriticalChildAt(want, i) {
			onPath[i] = true
		}
		wantScan := make([]ScanRecord, len(want))
		for i := range want {
			r := &want[i]
			wantScan[i] = ScanRecord{PT: r.ProcessingTime(), Service: r.Service, Size: r.Size, OnPath: onPath[i]}
		}
		scan := storedScan(&Trace{ID: 7, Type: "t", Root: root, Names: decodeNames})
		if scan.Root != nil || !scan.scanForm {
			t.Fatal("the scan-form store kept the live tree or stored the whole form")
		}
		dirtyScan := func() *[]ScanRecord {
			d := make([]ScanRecord, len(want)+3)
			for i := range d {
				d[i] = ScanRecord{PT: -1, Service: 9, Size: 11, OnPath: true}
			}
			return &d
		}
		for _, c := range []struct {
			form string
			got  []ScanRecord
		}{
			{"live tree", live.Scan(nil)},
			{"live tree over another trace's", live.Scan(dirtyScan())},
			{"whole stream", compact.Scan(nil)},
			{"whole stream over another trace's", compact.Scan(dirtyScan())},
			{"scan stream", scan.Scan(nil)},
			{"scan stream over another trace's", scan.Scan(dirtyScan())},
			{"retained scan stream", scan.Retain().Scan(nil)},
		} {
			if !reflect.DeepEqual(c.got, wantScan) {
				t.Fatalf("Scan of the %s differs from the live records' projection:\n got %+v\nwant %+v", c.form, c.got, wantScan)
			}
		}
		if got, want := scan.ResponseTime(), live.ResponseTime(); got != want {
			t.Errorf("scan form: ResponseTime = %v, live %v", got, want)
		}
		if got, want := scan.CompletedAt(), live.CompletedAt(); got != want {
			t.Errorf("scan form: CompletedAt = %v, live %v", got, want)
		}
		if got, want := scan.Degraded(), live.Degraded(); got != want {
			t.Errorf("scan form: Degraded = %v, live %v", got, want)
		}
		if got, want := scan.CriticalPathServices(), live.CriticalPathServices(); !slices.Equal(got, want) {
			t.Errorf("scan form: CriticalPathServices = %v, live %v", got, want)
		}
		for _, c := range []struct {
			read string
			fn   func()
		}{
			{"Records", func() { scan.Records(nil) }},
			{"UpstreamProcessing", func() { scan.UpstreamProcessing("a", nil) }},
			{"Export", func() { _ = Export(io.Discard, scan) }},
			{"Records of a retained copy", func() { scan.Retain().Records(nil) }},
		} {
			if msg := panicOf(c.fn); !strings.Contains(msg, "RetainTraces") {
				t.Errorf("%s of a scan-form trace: panic %q, want one naming RetainTraces", c.read, msg)
			}
		}
	})
}

// panicOf runs fn and returns the string it panicked with, or "".
func panicOf(fn func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	fn()
	return ""
}

// stored returns the trace as a warehouse hands it back: its tree
// encoded into a fresh warehouse's chunk, read through a view.
func stored(tr *Trace) *Trace { return storedIn(NewWarehouse(time.Hour), tr) }

// storedScan returns the trace as a scan-form warehouse hands it back.
func storedScan(tr *Trace) *Trace { return storedIn(NewScanWarehouse(time.Hour), tr) }

// storedIn stores the trace in w, which must be empty, and returns it
// as w hands it back.
func storedIn(w *Warehouse, tr *Trace) *Trace {
	w.Add(tr)
	c := w.all().At(0)
	return &c
}

// all returns the view of every retained trace, those completing at
// MaxInt64 included.
func (w *Warehouse) all() View { return View{w: w, first: w.evicted, n: w.n} }

// streamLen returns the length of the stream a warehouse stores for the
// tree under root.
func streamLen(root *Span, names *Names) int {
	return len(stored(&Trace{Root: root, Names: names}).enc)
}

// TestCompactSharedChunk stores a run of trees in one warehouse, whose
// newest chunk starts short of full so the third tree crosses into a
// fresh one, then stores one tree larger than a chunk and one more
// after it. After the last store every trace must still decode to
// exactly its own records, from a view capped at its stream's length so
// that no later append to the chunk can reach it.
func TestCompactSharedChunk(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 25))
	names := decodeNames
	var trees []*Span
	for range 12 {
		data := make([]byte, 5*rng.IntN(20))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		trees = append(trees, decodeTree(&compactReader{data: data}, 0, 0))
	}
	wide := &Span{}
	wide.SetIDs(0, -1) // a, on no pod
	for i := range chunkBytes / 4 {
		leaf := &Span{Arrival: sim.Time(i), End: sim.Time(2 * i), Demand: time.Duration(i)}
		leaf.SetIDs(1, 2) // b-0
		wide.Children = append(wide.Children, leaf)
	}
	if n := streamLen(wide, names); n <= chunkBytes {
		t.Fatalf("the wide tree's stream is %d B, want more than a chunk (%d B)", n, chunkBytes)
	}
	trees = append(trees, wide, trees[0])

	// Leave room for the first two trees and all but one byte of the
	// third, which then starts the second chunk.
	room := -1
	for _, root := range trees[:3] {
		room += streamLen(root, names)
	}
	w := NewWarehouse(time.Hour)
	w.names = names
	w.chunks.push(chunk{buf: make([]byte, chunkBytes-room, chunkBytes)})
	perChunk := map[*byte]int{}
	for _, root := range trees {
		w.Add(&Trace{Root: root, Names: names})
		live := w.chunks.live()
		perChunk[unsafe.SliceData(live[len(live)-1].buf)]++
	}
	if len(perChunk) != 4 {
		t.Fatalf("the run filled %d chunks, want 4 (the first, a fresh one, the oversized tree's, one after it)", len(perChunk))
	}
	shared := false
	for _, n := range perChunk {
		shared = shared || n > 1
	}
	if !shared {
		t.Fatal("no chunk holds more than one trace")
	}
	all := w.all()
	for i := range all.Len() {
		tr := all.At(i)
		got := tr.Records(nil)
		want := (&Trace{Root: trees[i], Names: names}).Records(nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: stored stream decodes differently from its tree", i)
		}
		if cap(tr.enc) != len(tr.enc) {
			t.Errorf("trace %d: %d B with capacity %d; a later append could overwrite a neighbour", i, len(tr.enc), cap(tr.enc))
		}
	}
}

// TestWarehouseAddAllocFree pins Warehouse.Add on the cluster's
// completion path, in the whole and in the scan form: once FIFO
// eviction recycles chunks and the scratch buffer, the entry blocks and
// the name tables have grown, storing a settled trace allocates
// nothing.
func TestWarehouseAddAllocFree(t *testing.T) {
	for _, c := range []struct {
		form string
		w    *Warehouse
	}{{"whole", NewWarehouse(time.Second)}, {"scan", NewScanWarehouse(time.Second)}} {
		w := c.w
		root := decodeTree(&compactReader{data: []byte{0, 1, 0, 0, 0x83, 1, 2, 3, 0x11, 0, 2, 0, 3, 1, 2}}, 0, 0)
		tr := &Trace{Type: "t", Root: root, Names: decodeNames}
		add := func() {
			// Shift the tree one millisecond on, so that eviction keeps a
			// second's worth of traces and recycles chunks as it goes.
			walk(root, func(s *Span) {
				s.Arrival += sim.Time(time.Millisecond)
				s.Start += sim.Time(time.Millisecond)
				s.End += sim.Time(time.Millisecond)
			})
			w.Add(tr)
		}
		for range 5000 {
			add()
		}
		if w.chunkBase == 0 {
			t.Fatalf("%s form: no chunk was retired; the warm-up is too short to recycle", c.form)
		}
		base := w.chunkBase
		avg := testing.AllocsPerRun(5000, add)
		if avg != 0 {
			t.Fatalf("%s form: Add of a settled trace allocates %.3f objects, want 0", c.form, avg)
		}
		if w.chunkBase == base {
			t.Fatalf("%s form: no chunk was recycled while measuring", c.form)
		}
	}
}

// TestRecordsDecodeAllocFree pins the read paths of a stored trace:
// once the caller's scratch has grown, decoding a compacted trace's
// records, and reading the scan records of its whole and of its scan
// form, allocate nothing.
func TestRecordsDecodeAllocFree(t *testing.T) {
	root := decodeTree(&compactReader{data: []byte{0, 1, 0, 0, 0x83, 1, 2, 3, 0x11, 0, 2, 0, 3, 1, 2}}, 0, 0)
	tr := stored(&Trace{Root: root, Names: decodeNames})
	var recs []Record
	tr.Records(&recs)
	avg := testing.AllocsPerRun(100, func() { tr.Records(&recs) })
	if avg != 0 {
		t.Fatalf("Records of a compacted trace into a warmed scratch allocates %.1f objects, want 0", avg)
	}
	for _, c := range []struct {
		form string
		tr   *Trace
	}{{"whole", tr}, {"scan", storedScan(&Trace{Root: root, Names: decodeNames})}} {
		var recs []ScanRecord
		c.tr.Scan(&recs)
		avg := testing.AllocsPerRun(100, func() { c.tr.Scan(&recs) })
		if avg != 0 {
			t.Fatalf("Scan of a %s-form trace into a warmed scratch allocates %.1f objects, want 0", c.form, avg)
		}
	}
}

// TestNamesKeepIDs checks that a name's id never changes: the table
// starts with the given services in order, appends service names it has
// not seen at first use and hands the same id back on every later use,
// and gives each added pod the next instance id.
func TestNamesKeepIDs(t *testing.T) {
	n := NewNames([]string{"a", "b"})
	for range 2 {
		for i, name := range []string{"b", "x", "a"} {
			if got, want := n.service(name), []int32{1, 2, 0}[i]; got != want {
				t.Fatalf("service %q = %d, want %d", name, got, want)
			}
		}
	}
	for i, name := range []string{"a-0", "a-1", "b-0"} {
		if got := n.AddInstance(name); got != int32(i) {
			t.Fatalf("AddInstance(%q) = %d, want %d", name, got, i)
		}
	}
	for id, want := range map[int32]string{0: "a-0", 2: "b-0", -1: ""} {
		if got := n.Instance(id); got != want {
			t.Errorf("Instance(%d) = %q, want %q", id, got, want)
		}
	}
	if got := n.Services(); !reflect.DeepEqual(got, []string{"a", "b", "x"}) {
		t.Errorf("Services() = %v", got)
	}
}
