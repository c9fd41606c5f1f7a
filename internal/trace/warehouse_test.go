package trace

import (
	"fmt"
	"testing"
	"time"

	"sora/internal/sim"
)

// TestWarehouseEvictionUnpinsTraces is a regression test for trace
// pinning: eviction must nil the dead prefix slots immediately so the
// evicted traces (and their span trees) become collectible even while
// the backing array is retained for reuse.
func TestWarehouseEvictionUnpinsTraces(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	for i := 1; i <= 30; i++ {
		w.Add(makeTraceAt(ID(i), time.Duration(i)*time.Second))
	}
	if w.head == 0 {
		t.Fatal("no eviction happened; head = 0")
	}
	for i := 0; i < w.head; i++ {
		if w.traces[i] != nil {
			t.Errorf("evicted slot %d still pins a trace (completed %v)", i, w.traces[i].CompletedAt())
		}
	}
	// Live region must stay intact and ordered.
	for i := w.head; i < len(w.traces); i++ {
		if w.traces[i] == nil {
			t.Fatalf("live slot %d is nil", i)
		}
		if i > w.head && w.traces[i].CompletedAt() < w.traces[i-1].CompletedAt() {
			t.Fatalf("live region out of order at %d", i)
		}
	}
}

// TestWarehouseBackingStaysBounded drives a long steady stream through a
// short retention window and asserts amortized compaction keeps the
// backing slice proportional to the live set, not to the total traces
// ever added.
func TestWarehouseBackingStaysBounded(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	const n = 5000
	for i := 1; i <= n; i++ {
		w.Add(makeTraceAt(ID(i), time.Duration(i)*time.Second))
	}
	if w.Len() > 11 {
		t.Fatalf("Len = %d, want <= 11 live traces", w.Len())
	}
	// Compaction triggers once the dead prefix passes 1024 and half the
	// slice; the backing length must therefore stay well under n.
	if len(w.traces) > 2100 {
		t.Fatalf("backing slice len = %d after %d adds; compaction not bounding memory", len(w.traces), n)
	}
	if w.Added() != n {
		t.Errorf("Added = %d, want %d", w.Added(), n)
	}
	if want := uint64(n - w.Len()); w.evicted != want {
		t.Errorf("Evicted = %d, want %d", w.evicted, want)
	}
	// Surviving traces are the newest ones, still in completion order.
	all := w.All()
	for i, tr := range all {
		if want := ID(n - len(all) + 1 + i); tr.ID != want {
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
	view, first := w.View(sim.Time(20*time.Second), sim.Time(25*time.Second))
	if len(view) == 0 {
		t.Fatal("empty view")
	}
	for i, tr := range view {
		if uint64(tr.ID) != first+uint64(i) {
			t.Fatalf("view[%d] is trace %d, want sequence number %d", i, tr.ID, first+uint64(i))
		}
	}
	got := w.Unsettled(first, first+uint64(len(view)))
	var want []uint64
	for seq := first; seq < first+uint64(len(view)); seq++ {
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
	if _, first := w.View(sim.Time(time.Hour), sim.Time(2*time.Hour)); first != n {
		t.Errorf("empty view past the end starts at %d, want %d", first, n)
	}
}
