package trace

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"sora/internal/sim"
)

// TestWarehouseEvictionUnpinsTraces is a regression test for trace
// pinning: eviction must drop the live trees of evicted unsettled
// traces at once, so that they become collectible, and retire the
// chunks no retained trace is in, while the entries left stay in
// completion order.
func TestWarehouseEvictionUnpinsTraces(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	for i := 1; i <= 30; i++ {
		tr := makeTraceAt(ID(i), time.Duration(i)*time.Second)
		if i%3 == 0 {
			w.AddUnsettled(tr)
		} else {
			w.Add(tr)
		}
	}
	if w.evicted == 0 {
		t.Fatal("no eviction happened")
	}
	if w.rootBase == 0 {
		t.Fatal("no unsettled trace was evicted")
	}
	q := &w.roots
	for i := range q.head {
		if q.s[i] != nil {
			t.Errorf("evicted root slot %d still pins a tree", i)
		}
	}
	for i, r := range q.live() {
		if r == nil {
			t.Fatalf("live root %d is nil", i)
		}
	}
	all := w.all()
	var prev sim.Time
	for i := range all.Len() {
		tr := all.At(i)
		if tr.Root == nil && len(tr.enc) == 0 {
			t.Fatalf("retained trace %d has neither a tree nor a stream", i)
		}
		if i > 0 && tr.CompletedAt() < prev {
			t.Fatalf("retained traces out of order at %d", i)
		}
		prev = tr.CompletedAt()
	}
}

// TestWarehouseBackingStaysBounded drives a long steady stream through a
// short retention window and asserts the entry blocks, the chunks and
// the unsettled table stay proportional to the live set, not to the
// total traces ever added.
func TestWarehouseBackingStaysBounded(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	const n = 5000
	for i := 1; i <= n; i++ {
		tr := makeTraceAt(ID(i), time.Duration(i)*time.Second)
		if i%5 == 0 {
			w.AddUnsettled(tr)
		} else {
			w.Add(tr)
		}
	}
	if w.Len() > 11 {
		t.Fatalf("Len = %d, want <= 11 live traces", w.Len())
	}
	if len(w.blocks.s) > 2 || len(w.chunks.s) > 2 || len(w.roots.s) > 8 || len(w.unsettled.s) > 8 {
		t.Fatalf("backing after %d adds: %d entry blocks, %d chunks, %d roots, %d unsettled; eviction not bounding memory",
			n, len(w.blocks.s), len(w.chunks.s), len(w.roots.s), len(w.unsettled.s))
	}
	if w.Added() != n {
		t.Errorf("Added = %d, want %d", w.Added(), n)
	}
	if want := uint64(n - w.Len()); w.evicted != want {
		t.Errorf("Evicted = %d, want %d", w.evicted, want)
	}
	// Surviving traces are the newest ones, still in completion order.
	all := w.all()
	for i := range all.Len() {
		if tr, want := all.At(i), ID(n-all.Len()+1+i); tr.ID != want {
			t.Fatalf("All[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
}

// TestWarehouseViewSequenceAndUnsettled checks the add-order numbering a
// cached reader keys on: View's first sequence number stays the add
// index of its first trace across evictions and compactions, Unsettled
// reports exactly the traces stored with AddUnsettled in a range, and
// eviction drops them with their traces.
func TestWarehouseViewSequenceAndUnsettled(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	const n = 3000
	for i := 0; i < n; i++ {
		tr := makeTraceAt(ID(i), time.Duration(i)*10*time.Millisecond)
		if i%7 == 3 {
			w.AddUnsettled(tr)
		} else {
			w.Add(tr)
		}
	}
	view := w.Window(sim.Time(20*time.Second), sim.Time(25*time.Second))
	first := view.First()
	if view.Len() == 0 {
		t.Fatal("empty view")
	}
	for i := range view.Len() {
		if tr := view.At(i); uint64(tr.ID) != first+uint64(i) {
			t.Fatalf("view[%d] is trace %d, want sequence number %d", i, tr.ID, first+uint64(i))
		}
	}
	got := w.Unsettled(first, first+uint64(view.Len()))
	var want []uint64
	for seq := first; seq < first+uint64(view.Len()); seq++ {
		if seq%7 == 3 {
			want = append(want, seq)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Unsettled = %v, want %v", got, want)
	}
	if all := w.Unsettled(0, n); len(all) == 0 || all[0] < w.evicted {
		t.Errorf("Unsettled(0, %d) starts at %v; evicted traces end at %d", n, all[:1], w.evicted)
	}
	if first := w.Window(sim.Time(time.Hour), sim.Time(2*time.Hour)).First(); first != n {
		t.Errorf("empty view past the end starts at %d, want %d", first, n)
	}
}

// TestWarehouseRecycledChunks stores traces through a short retention
// window until FIFO eviction has recycled chunks several times, with
// unsettled traces interleaved. A recycled chunk holds the bytes of the
// traces stored in it before, so every retained trace must still decode
// to exactly its own tree's records, and its stream must be byte for
// byte the stream the same tree gets in a fresh chunk, pad included.
func TestWarehouseRecycledChunks(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	w := NewWarehouse(2 * time.Second)
	w.names = decodeNames
	type kept struct {
		root *Span
		want []Record
		enc  []byte // the fresh-chunk stream; nil for an unsettled trace
	}
	byID := map[ID]kept{}
	seen := map[*byte]bool{} // the chunks opened so far
	var tail *byte
	recycled := 0
	check := func() {
		t.Helper()
		all := w.all()
		var buf []Record
		for i := range all.Len() {
			tr := all.At(i)
			k := byID[tr.ID]
			if got := tr.Records(&buf); !reflect.DeepEqual(got, k.want) {
				t.Fatalf("trace %d decodes to other records than its tree's", tr.ID)
			}
			if k.enc == nil {
				if tr.Root != k.root {
					t.Fatalf("unsettled trace %d lost its live tree", tr.ID)
				}
				continue
			}
			if !bytes.Equal(tr.enc, k.enc) {
				t.Fatalf("trace %d: stored stream\n%x\nwant the fresh-chunk stream\n%x", tr.ID, tr.enc, k.enc)
			}
		}
	}
	for i := range 6000 {
		data := make([]byte, 5*(1+rng.IntN(12)))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		root := decodeTree(&compactReader{data: data}, sim.Time(i)*sim.Time(time.Millisecond), 0)
		id := ID(i + 1)
		k := kept{root: root, want: (&Trace{Root: root, Names: decodeNames}).Records(nil)}
		tr := &Trace{ID: id, Type: "t", Root: root, Names: decodeNames}
		if i%9 == 4 {
			w.AddUnsettled(tr)
		} else {
			k.enc = stored(&Trace{Root: root, Names: decodeNames}).enc
			w.Add(tr)
			live := w.chunks.live()
			if p := unsafe.SliceData(live[len(live)-1].buf); p != tail {
				if seen[p] {
					recycled++ // this trace opened a chunk earlier traces filled
				}
				seen[p], tail = true, p
			}
		}
		byID[id] = k
		if i%250 == 0 {
			check()
		}
	}
	check()
	if recycled < 3 {
		t.Fatalf("%d chunks recycled, want at least 3", recycled)
	}
	t.Logf("%d chunks opened, %d reopened after recycling", len(seen), recycled)
}

// TestWarehouseBurstEvictionReusesChunks checks the free list's bound:
// a burst eviction that retires more than two chunks while as many stay
// live keeps every retired chunk, so that regrowing the store to its
// earlier size allocates no chunk.
func TestWarehouseBurstEvictionReusesChunks(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	w.names = decodeNames
	add := func(at sim.Time) {
		root := &Span{Arrival: at, End: at + 1}
		root.SetIDs(0, 0)
		for i := range 500 {
			leaf := &Span{Arrival: at + sim.Time(i), End: at + sim.Time(2*i)}
			leaf.SetIDs(1, 2)
			root.Children = append(root.Children, leaf)
		}
		w.Add(&Trace{Root: root, Names: decodeNames})
	}
	seen := map[*byte]bool{}
	note := func() (fresh int) {
		for _, c := range w.chunks.live() {
			if p := unsafe.SliceData(c.buf); !seen[p] {
				seen[p] = true
				fresh++
			}
		}
		return fresh
	}
	// Fill ten chunks with traces a millisecond apart, all retained.
	at := sim.Time(0)
	for len(w.chunks.live()) < 10 {
		add(at)
		note()
		at += sim.Time(time.Millisecond)
	}
	high := len(w.chunks.live())
	// One trace a retention later than the first half of them evicts
	// that half at once.
	add(sim.Time(10*time.Second) + at/2)
	note()
	retired := high - len(w.chunks.live())
	if retired <= 2 || len(w.chunks.live()) < retired {
		t.Fatalf("the burst retired %d of %d chunks; want more than 2 and no more than stay live", retired, high)
	}
	// Regrow to the earlier size without evicting.
	for at = sim.Time(10*time.Second) + at/2; len(w.chunks.live()) < high; {
		at += sim.Time(time.Microsecond)
		add(at)
		if fresh := note(); fresh > 0 {
			t.Fatalf("regrowing to %d chunks after a burst that retired %d allocated %d chunks", high, retired, fresh)
		}
	}
	if len(w.free) > len(w.chunks.live()) {
		t.Errorf("%d free chunks with %d live", len(w.free), len(w.chunks.live()))
	}
}
