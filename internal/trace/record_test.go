package trace

import (
	"bytes"
	"math/rand/v2"
	"reflect"
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
func decodeTree(r *compactReader, arrival sim.Time, depth int32) *Span {
	r.spans++
	services := decodeNames.Services()
	svc, inst, timing, flags, kids := r.next(), r.next(), r.next(), r.next(), r.next()
	dur := time.Duration(1+timing%4) * time.Millisecond
	s := &Span{
		Service:     services[svc%len(services)],
		Depth:       depth,
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
var decodeNames = func() *Names {
	n := NewNames([]string{"a", "b", "c", "d"})
	for _, svc := range n.Services() {
		n.AddInstance(svc + "-0")
		n.AddInstance(svc + "-1")
	}
	return n
}()

// FuzzCompactTrace decodes bytes into a span tree and compacts it:
// materializing the records must give back the original tree — same
// child order, same Depth, nil leaf lists — and every Trace accessor
// and the export bytes must agree between the live and the compacted
// form.
func FuzzCompactTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0x83, 1, 2, 3, 0x11, 0, 2, 0, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		root := decodeTree(&compactReader{data: data}, 0, 0)
		live := &Trace{ID: 7, Type: "t", Root: root, Names: decodeNames}
		compact := &Trace{ID: 7, Type: "t", Root: root, Names: decodeNames}
		var scratch, chunk []Record
		compact.Compact(&scratch, &chunk)
		if compact.Root != nil {
			t.Fatal("Compact kept the live tree")
		}
		if got := compact.Tree(); !reflect.DeepEqual(got, root) {
			t.Fatalf("materialized tree differs from the original:\n got %+v\nwant %+v", got, root)
		}
		if got, want := compact.SpanCount(), live.SpanCount(); got != want || len(compact.Records(nil)) != want {
			t.Errorf("SpanCount = %d (%d records), live %d", got, len(compact.Records(nil)), want)
		}
		if got, want := compact.ResponseTime(), live.ResponseTime(); got != want {
			t.Errorf("ResponseTime = %v, live %v", got, want)
		}
		if got, want := compact.CompletedAt(), live.CompletedAt(); got != want {
			t.Errorf("CompletedAt = %v, live %v", got, want)
		}
		if got, want := compact.CriticalPath(), live.CriticalPath(); !reflect.DeepEqual(got, want) {
			t.Errorf("CriticalPath = %v, live %v", got, want)
		}
		for _, svc := range []string{"a", "b", "c", "d", "absent"} {
			gotUp, gotOK := compact.UpstreamProcessing(svc)
			wantUp, wantOK := live.UpstreamProcessing(svc)
			if gotUp != wantUp || gotOK != wantOK {
				t.Errorf("UpstreamProcessing(%q) = (%v, %v), live (%v, %v)", svc, gotUp, gotOK, wantUp, wantOK)
			}
			if got, want := compact.FindSpan(svc), live.FindSpan(svc); !reflect.DeepEqual(got, want) {
				t.Errorf("FindSpan(%q) = %v, live %v", svc, got, want)
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
		// The live form read as records matches the stored ones, and the
		// depths the walk derives are the spans' own.
		if got, want := live.Records(&scratch), compact.Records(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("live records %v, stored %v", got, want)
		}
		var depths []int32
		root.Walk(func(s *Span) { depths = append(depths, s.Depth) })
		Depths(compact.Records(nil), func(i, depth int) {
			if int32(depth) != depths[i] {
				t.Errorf("record %d at depth %d, span depth %d", i, depth, depths[i])
			}
		})
	})
}

// TestCompactSharedChunk compacts a run of trees into shared chunks,
// starting short of a full chunk so the third tree crosses into a
// fresh one, then compacts one tree larger than a chunk and one more
// after it. After the last compaction every trace must still hold
// exactly its own records, in a view capped at its length so that no
// later append to the chunk can reach them.
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
	// The wide root is left unstamped, as a span built outside the
	// cluster is: compaction interns its service by name.
	wide := &Span{Service: "a"}
	for range chunkRecords {
		leaf := &Span{Service: "b", Depth: 1}
		leaf.SetIDs(1, 2) // b-0
		wide.Children = append(wide.Children, leaf)
	}
	trees = append(trees, wide, trees[0])

	// Leave room for the first two trees and all but one record of the
	// third, which then starts the second chunk.
	room := -1
	for _, root := range trees[:3] {
		room += len((&Trace{Root: root, Names: names}).Records(nil))
	}
	var scratch []Record
	chunk := make([]Record, chunkRecords-room, chunkRecords)
	perChunk := map[*Record]int{}
	traces := make([]*Trace, len(trees))
	for i, root := range trees {
		traces[i] = &Trace{Root: root, Names: names}
		traces[i].Compact(&scratch, &chunk)
		perChunk[unsafe.SliceData(chunk)]++
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
	for i, tr := range traces {
		got := tr.Records(nil)
		want := (&Trace{Root: trees[i], Names: names}).Records(nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: stored records differ from a fresh compaction of its tree", i)
		}
		if cap(got) != len(got) {
			t.Errorf("trace %d: %d records with capacity %d; a later append could overwrite a neighbour", i, len(got), cap(got))
		}
	}
}

// TestCompactIntoChunkAllocFree pins Trace.Compact on the cluster's
// completion path: once the scratch buffer has grown and the names are
// interned, compacting a settled tree into a chunk with room allocates
// nothing.
func TestCompactIntoChunkAllocFree(t *testing.T) {
	root := decodeTree(&compactReader{data: []byte{0, 1, 0, 0, 0x83, 1, 2, 3, 0x11, 0, 2, 0, 3, 1, 2}}, 0, 0)
	tr := &Trace{Root: root, Names: decodeNames}
	var scratch []Record
	chunk := make([]Record, 0, chunkRecords)
	tr.Compact(&scratch, &chunk)
	avg := testing.AllocsPerRun(100, func() {
		tr.Root = root
		chunk = chunk[:0] // keep room; the compacted copies are not read
		tr.Compact(&scratch, &chunk)
	})
	if avg != 0 {
		t.Fatalf("Compact into a chunk with room allocates %.1f objects, want 0", avg)
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

// TestUnstampedSpanRecords checks the records of a tree built without
// ids: each service is interned by name and no span has a pod, so the
// materialized tree reads back with services and no instances.
func TestUnstampedSpanRecords(t *testing.T) {
	root := &Span{Service: "a", End: 3, Children: []*Span{{Service: "y", Depth: 1, End: 2}}}
	tr := &Trace{Root: root, Names: NewNames([]string{"a", "b"})}
	recs := tr.Records(nil)
	if len(recs) != 2 || recs[0].Service != 0 || recs[1].Service != 2 || recs[0].Instance != -1 || recs[1].Instance != -1 {
		t.Fatalf("records = %+v, want services 0 and 2 with no instance", recs)
	}
	tree := tr.Names.tree(recs)
	if tree.Children[0].Service != "y" || tree.Children[0].Instance(tr.Names) != "" {
		t.Errorf("materialized child = %v on pod %q", tree.Children[0], tree.Children[0].Instance(tr.Names))
	}
}
