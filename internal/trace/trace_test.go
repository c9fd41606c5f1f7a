package trace

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"sora/internal/sim"
)

// visit returns a copy of s stamped with the id of service in names,
// interned on first use, and no pod.
func visit(names *Names, service string, s Span) *Span {
	s.SetIDs(names.service(service), -1)
	return &s
}

// walk calls fn for the span and every descendant in depth-first
// pre-order.
func walk(s *Span, fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		walk(c, fn)
	}
}

// chainTrace builds frontend -> cart -> cartdb with simple timestamps,
// each span stamped with its service and a pod "<service>-0".
//
//	frontend: [0, 100ms], blocked 80ms on cart
//	cart:     [5ms, 85ms], blocked 40ms on cartdb
//	cartdb:   [20ms, 60ms]
func chainTrace(id ID) *Trace {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	db := &Span{Arrival: ms(20), Start: ms(22), End: ms(60)}
	cart := &Span{
		Arrival: ms(5), Start: ms(8), End: ms(85),
		Blocked:  40 * time.Millisecond,
		Children: []*Span{db},
	}
	fe := &Span{
		Arrival: 0, Start: ms(1), End: ms(100),
		Blocked:  80 * time.Millisecond,
		Children: []*Span{cart},
	}
	names := NewNames([]string{"front-end", "cart", "cart-db"})
	for i, s := range []*Span{fe, cart, db} {
		s.SetIDs(int32(i), names.AddInstance(names.Service(int32(i))+"-0"))
	}
	return &Trace{ID: id, Type: "getCart", Root: fe, Names: names}
}

// forkTrace builds frontend with two parallel children where catalogue
// dominates, no span on a pod.
func forkTrace(id ID) *Trace {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	names := NewNames(nil)
	fe := visit(names, "front-end", Span{
		Arrival: 0, Start: ms(1), End: ms(100),
		Blocked: 80 * time.Millisecond,
	})
	fe.Children = []*Span{
		visit(names, "cart", Span{Arrival: ms(10), Start: ms(10), End: ms(30)}),
		visit(names, "catalogue", Span{Arrival: ms(10), Start: ms(12), End: ms(90)}),
	}
	return &Trace{ID: id, Type: "getCatalogue", Root: fe, Names: names}
}

func TestSpanTimings(t *testing.T) {
	cart := chainTrace(1).Records(nil)[1]
	if got := cart.Duration(); got != 80*time.Millisecond {
		t.Errorf("Duration = %v, want 80ms", got)
	}
	if got := cart.ProcessingTime(); got != 40*time.Millisecond {
		t.Errorf("ProcessingTime = %v, want 40ms (80ms span - 40ms blocked)", got)
	}
}

func TestProcessingTimeNeverNegative(t *testing.T) {
	r := &Record{Arrival: 0, End: sim.Time(10 * time.Millisecond), Blocked: time.Second}
	if got := r.ProcessingTime(); got != 0 {
		t.Errorf("ProcessingTime = %v, want 0", got)
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := chainTrace(7)
	if got := tr.ResponseTime(); got != 100*time.Millisecond {
		t.Errorf("ResponseTime = %v, want 100ms", got)
	}
	if got := len(tr.Records(nil)); got != 3 {
		t.Errorf("%d records, want 3", got)
	}
	if got := tr.CompletedAt(); got != sim.Time(100*time.Millisecond) {
		t.Errorf("CompletedAt = %v, want 100ms", got)
	}
	empty := &Trace{}
	if empty.ResponseTime() != 0 || empty.Records(nil) != nil || empty.CriticalPathServices() != nil || empty.Degraded() {
		t.Error("empty trace accessors not zero-valued")
	}
}

// TestTraceDegraded checks that Degraded reads the root's flag in both
// the live and the stored form.
func TestTraceDegraded(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		tr := chainTrace(1)
		tr.Root.Degraded = degraded
		tr.Root.Children[0].Degraded = !degraded
		if got := tr.Degraded(); got != degraded {
			t.Errorf("live: Degraded = %v, want %v", got, degraded)
		}
		if got := stored(tr).Degraded(); got != degraded {
			t.Errorf("stored: Degraded = %v, want %v", got, degraded)
		}
	}
}

// checkPath fails t unless the critical path of tr, read as
// CriticalPathServices and by descending its records with
// CriticalChildAt, is want, in both the live and the stored form.
func checkPath(t *testing.T, tr *Trace, want ...string) {
	t.Helper()
	for form, tr := range map[string]*Trace{"live": tr, "stored": stored(tr)} {
		if got := tr.CriticalPathServices(); !slices.Equal(got, want) {
			t.Errorf("%s: CriticalPathServices = %v, want %v", form, got, want)
		}
		recs := tr.Records(nil)
		var got []string
		for i := 0; i >= 0; i = CriticalChildAt(recs, i) {
			got = append(got, tr.Names.Service(recs[i].Service))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: CriticalChildAt descends %v, want %v", form, got, want)
		}
	}
}

func TestCriticalPathChain(t *testing.T) {
	checkPath(t, chainTrace(1), "front-end", "cart", "cart-db")
}

func TestCriticalPathPicksDominantBranch(t *testing.T) {
	checkPath(t, forkTrace(2), "front-end", "catalogue")
}

func TestUpstreamProcessing(t *testing.T) {
	tr := chainTrace(1)
	// front-end PT = 100ms span - 80ms blocked = 20ms.
	got, ok := tr.UpstreamProcessing("cart", nil)
	if !ok {
		t.Fatal("cart not on critical path")
	}
	if got != 20*time.Millisecond {
		t.Errorf("upstream PT = %v, want 20ms", got)
	}
	// cart-db upstream = front-end 20ms + cart 40ms.
	got, ok = tr.UpstreamProcessing("cart-db", nil)
	if !ok || got != 60*time.Millisecond {
		t.Errorf("upstream PT = %v ok=%v, want 60ms", got, ok)
	}
	if _, ok := tr.UpstreamProcessing("payment", nil); ok {
		t.Error("found service not on path")
	}
	if got, ok := tr.UpstreamProcessing("front-end", nil); !ok || got != 0 {
		t.Errorf("front-end upstream = %v ok=%v, want 0 true", got, ok)
	}
}

// randomNames is the table randomSpanTree's ids index.
var randomNames = NewNames([]string{"a", "b", "c", "d"})

// randomSpanTree builds a random span tree below depth levels. Services
// of randomNames repeat across the tree, durations come from a handful
// of values so equal-duration siblings are common, and some children
// are Abandoned.
func randomSpanTree(rng *rand.Rand, depth int) *Span {
	arrival := sim.Time(rng.IntN(3)) * time.Millisecond
	dur := time.Duration(1+rng.IntN(4)) * time.Millisecond
	s := &Span{
		Arrival: arrival,
		Start:   arrival,
		End:     arrival + dur,
		Blocked: time.Duration(rng.Int64N(int64(dur) + 1)),
	}
	s.SetIDs(int32(rng.IntN(len(randomNames.Services()))), -1)
	if depth < 4 {
		for i := rng.IntN(4); i > 0; i-- {
			c := randomSpanTree(rng, depth+1)
			c.Abandoned = rng.IntN(5) == 0
			s.Children = append(s.Children, c)
		}
	}
	return s
}

// spanPath returns the critical path of the tree under s descended over
// the spans themselves, longest non-abandoned child first and the
// earliest-dispatched on ties: a reference for the record descent that
// shares none of its code.
func spanPath(s *Span) []*Span {
	var path []*Span
	for s != nil {
		path = append(path, s)
		var next *Span
		for _, c := range s.Children {
			if !c.Abandoned && (next == nil || c.Duration() > next.Duration()) {
				next = c
			}
		}
		s = next
	}
	return path
}

// TestUpstreamProcessingMatchesCriticalPath checks the record descent
// against the sum over a critical path taken over the span tree,
// including tie-breaks, Abandoned skips and services that repeat along
// the path.
func TestUpstreamProcessingMatchesCriticalPath(t *testing.T) {
	viaSpans := func(tr *Trace, service string) (time.Duration, bool) {
		if tr.Root == nil {
			return 0, false
		}
		var sum time.Duration
		for _, s := range spanPath(tr.Root) {
			if tr.Names.Service(s.service) == service {
				return sum, true
			}
			sum += processingTime(s.Duration(), s.Blocked, s.RetryWait, s.BreakerWait)
		}
		return 0, false
	}
	rng := sim.NewKernel(0x7ace).Split(0x9a7)
	trees := []*Trace{{Names: randomNames}}
	for i := 0; i < 500; i++ {
		trees = append(trees, &Trace{ID: ID(i), Root: randomSpanTree(rng, 0), Names: randomNames})
	}
	var scratch []Record
	for _, tr := range trees {
		for _, svc := range []string{"a", "b", "c", "d", "absent"} {
			got, gotOK := tr.UpstreamProcessing(svc, &scratch)
			want, wantOK := viaSpans(tr, svc)
			if got != want || gotOK != wantOK {
				t.Fatalf("trace %d service %q: UpstreamProcessing = (%v, %v), critical-path sum = (%v, %v)",
					tr.ID, svc, got, gotOK, want, wantOK)
			}
		}
	}
}

var upstreamSink time.Duration

// TestUpstreamProcessingAllocFree pins the reference's per-trace call at
// zero allocations once its scratch has grown, for a live and a stored
// trace.
func TestUpstreamProcessingAllocFree(t *testing.T) {
	for form, tr := range map[string]*Trace{"live": chainTrace(3), "stored": stored(chainTrace(3))} {
		var scratch []Record
		tr.UpstreamProcessing("cart-db", &scratch)
		avg := testing.AllocsPerRun(100, func() {
			upstreamSink, _ = tr.UpstreamProcessing("cart-db", &scratch)
		})
		if avg != 0 {
			t.Fatalf("%s: UpstreamProcessing allocates %.1f objects per call, want 0", form, avg)
		}
	}
}

// TestWalkOrder checks that records come in pre-order, children in
// call order.
func TestWalkOrder(t *testing.T) {
	tr := forkTrace(1)
	var order []string
	for _, r := range tr.Records(nil) {
		order = append(order, tr.Names.Service(r.Service))
	}
	if want := []string{"front-end", "cart", "catalogue"}; !slices.Equal(order, want) {
		t.Fatalf("walk order %v, want %v", order, want)
	}
}

// makeTraceAt returns a one-span trace completing at done, its span
// stamped as service 0 on no pod.
func makeTraceAt(id ID, done time.Duration) *Trace {
	root := &Span{Arrival: sim.Time(done - 10*time.Millisecond), Start: sim.Time(done - 10*time.Millisecond), End: sim.Time(done)}
	root.SetIDs(0, -1)
	return &Trace{ID: id, Type: "t", Root: root}
}

func TestWarehouseAddAndWindow(t *testing.T) {
	w := NewWarehouse(time.Minute)
	for i := 1; i <= 10; i++ {
		w.Add(makeTraceAt(ID(i), time.Duration(i)*time.Second))
	}
	if w.Len() != 10 {
		t.Fatalf("Len = %d, want 10", w.Len())
	}
	got := w.Window(sim.Time(3*time.Second), sim.Time(7*time.Second))
	if got.Len() != 4 {
		t.Fatalf("window returned %d traces, want 4", got.Len())
	}
	for i := range got.Len() {
		if tr, want := got.At(i), ID(i+3); tr.ID != want {
			t.Errorf("window[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
}

func TestWarehouseEviction(t *testing.T) {
	w := NewWarehouse(10 * time.Second)
	for i := 1; i <= 30; i++ {
		w.Add(makeTraceAt(ID(i), time.Duration(i)*time.Second))
	}
	// After adding trace completing at 30s, cutoff is 20s.
	if w.Len() >= 30 {
		t.Fatalf("no eviction happened: Len = %d", w.Len())
	}
	all := w.all()
	for i := range all.Len() {
		if tr := all.At(i); tr.CompletedAt() < sim.Time(20*time.Second) {
			t.Errorf("trace completing at %v survived eviction", tr.CompletedAt())
		}
	}
	if w.Added() != 30 {
		t.Errorf("Added = %d, want 30", w.Added())
	}
	if w.evicted == 0 {
		t.Error("Evicted = 0, want > 0")
	}
}

func TestWarehousePrune(t *testing.T) {
	w := NewWarehouse(5 * time.Second)
	for i := 1; i <= 5; i++ {
		w.Add(makeTraceAt(ID(i), time.Duration(i)*time.Second))
	}
	w.evictBefore(sim.Time(15 * time.Second)) // 20s minus the 5s retention
	if w.Len() != 0 {
		t.Errorf("Len after prune = %d, want 0", w.Len())
	}
}

func TestWarehouseIgnoresNil(t *testing.T) {
	w := NewWarehouse(time.Minute)
	w.Add(nil)
	w.Add(&Trace{ID: 1}) // nil root
	if w.Len() != 0 {
		t.Errorf("Len = %d, want 0", w.Len())
	}
}

// TestWarehouseDefaultRetention checks that a warehouse retaining
// DefaultRetention keeps a trace exactly that old across an Add, and
// evicts one a nanosecond older.
func TestWarehouseDefaultRetention(t *testing.T) {
	w := NewWarehouse(DefaultRetention)
	w.Add(makeTraceAt(1, time.Second))
	w.Add(makeTraceAt(2, time.Second+DefaultRetention))
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2: a trace one retention old was evicted", w.Len())
	}
	w.Add(makeTraceAt(3, time.Second+DefaultRetention+1))
	if w.Len() != 2 || w.Stats().Evicted != 1 {
		t.Errorf("Len = %d, evicted %d, want 2 and 1", w.Len(), w.Stats().Evicted)
	}
}

// TestWarehouseWindowExcludesOutside checks that Window drops traces
// completing before since: both test traces complete at 100ms.
func TestWarehouseWindowExcludesOutside(t *testing.T) {
	w := NewWarehouse(time.Hour)
	first, second := chainTrace(1), chainTrace(2)
	second.Names = first.Names // a warehouse's traces share one table
	w.Add(first)
	w.Add(second)
	if got := w.Window(0, sim.Time(time.Hour)); got.Len() != 2 {
		t.Fatalf("got %d traces in the full window, want 2", got.Len())
	}
	if got := w.Window(sim.Time(200*time.Millisecond), sim.Time(time.Hour)); got.Len() != 0 {
		t.Errorf("got %d traces outside the window, want 0", got.Len())
	}
}

// TestWarehouseAtIsCopy checks that a view hands out traces by value:
// changing one does not change the stored trace.
func TestWarehouseAtIsCopy(t *testing.T) {
	w := NewWarehouse(time.Hour)
	w.Add(chainTrace(1))
	tr := w.all().At(0)
	tr.ID, tr.Type, tr.enc = 9, "changed", nil
	if got := w.all().At(0); got.ID != 1 || got.Type != "getCart" || len(got.enc) == 0 {
		t.Errorf("At(0) = trace %d of type %q with %d stream bytes after its copy changed", got.ID, got.Type, len(got.enc))
	}
}

// TestCriticalPathTieBreaksByDispatchOrder pins the documented rule:
// equal-duration parallel children resolve to the earliest-dispatched
// one (the first in call order), keeping attribution deterministic.
func TestCriticalPathTieBreaksByDispatchOrder(t *testing.T) {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	names := NewNames(nil)
	fe := visit(names, "front-end", Span{Arrival: 0, Start: 0, End: ms(60)})
	fe.Children = []*Span{ // both 40ms wall time
		visit(names, "cart", Span{Arrival: ms(10), Start: ms(10), End: ms(50)}),
		visit(names, "catalogue", Span{Arrival: ms(5), Start: ms(5), End: ms(45)}),
	}
	checkPath(t, &Trace{ID: 1, Type: "tie", Root: fe, Names: names}, "front-end", "cart")
}

// TestCriticalPathChildOutlastsParentProcessing descends into a child
// even when the child's span ends after the parent's own processing
// window — the path follows structure (maximal-duration child), not
// containment.
func TestCriticalPathChildOutlastsParentProcessing(t *testing.T) {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	names := NewNames(nil)
	fe := visit(names, "front-end", Span{Arrival: 0, Start: 0, End: ms(100), Blocked: 91 * time.Millisecond})
	cart := visit(names, "cart", Span{Arrival: ms(5), Start: ms(5), End: ms(96), Blocked: 85 * time.Millisecond})
	cart.Children = []*Span{visit(names, "cart-db", Span{Arrival: ms(10), Start: ms(10), End: ms(95)})}
	fe.Children = []*Span{cart}
	checkPath(t, &Trace{ID: 1, Type: "deep", Root: fe, Names: names}, "front-end", "cart", "cart-db")
}

// TestCriticalPathSingleSpan covers the degenerate leaf-only trace.
func TestCriticalPathSingleSpan(t *testing.T) {
	tr := makeTraceAt(1, 50*time.Millisecond)
	tr.Names = NewNames([]string{"svc"})
	checkPath(t, tr, "svc")
}
