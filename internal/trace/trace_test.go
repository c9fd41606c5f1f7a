package trace

import (
	"math/rand/v2"
	"testing"
	"time"

	"sora/internal/sim"
)

// chainTrace builds frontend -> cart -> cartdb with simple timestamps.
//
//	frontend: [0, 100ms], blocked 80ms on cart
//	cart:     [5ms, 85ms], blocked 40ms on cartdb
//	cartdb:   [20ms, 60ms]
func chainTrace(id ID) *Trace {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	db := &Span{Service: "cart-db", Instance: "cart-db-0", Depth: 2, Arrival: ms(20), Start: ms(22), End: ms(60)}
	cart := &Span{
		Service: "cart", Instance: "cart-0", Depth: 1,
		Arrival: ms(5), Start: ms(8), End: ms(85),
		Blocked:  40 * time.Millisecond,
		Children: []*Span{db},
	}
	fe := &Span{
		Service: "front-end", Instance: "front-end-0", Depth: 0,
		Arrival: 0, Start: ms(1), End: ms(100),
		Blocked:  80 * time.Millisecond,
		Children: []*Span{cart},
	}
	return &Trace{ID: id, Type: "getCart", Root: fe}
}

// forkTrace builds frontend with two parallel children where catalogue
// dominates.
func forkTrace(id ID) *Trace {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	cart := &Span{Service: "cart", Depth: 1, Arrival: ms(10), Start: ms(10), End: ms(30)}
	catalogue := &Span{Service: "catalogue", Depth: 1, Arrival: ms(10), Start: ms(12), End: ms(90)}
	fe := &Span{
		Service: "front-end", Depth: 0,
		Arrival: 0, Start: ms(1), End: ms(100),
		Blocked:  80 * time.Millisecond,
		Children: []*Span{cart, catalogue},
	}
	return &Trace{ID: id, Type: "getCatalogue", Root: fe}
}

func TestSpanTimings(t *testing.T) {
	tr := chainTrace(1)
	cart := tr.Root.Children[0]
	if got := cart.Duration(); got != 80*time.Millisecond {
		t.Errorf("Duration = %v, want 80ms", got)
	}
	if got := cart.ProcessingTime(); got != 40*time.Millisecond {
		t.Errorf("ProcessingTime = %v, want 40ms (80ms span - 40ms blocked)", got)
	}
}

func TestProcessingTimeNeverNegative(t *testing.T) {
	s := &Span{Arrival: 0, End: sim.Time(10 * time.Millisecond), Blocked: time.Second}
	if got := s.ProcessingTime(); got != 0 {
		t.Errorf("ProcessingTime = %v, want 0", got)
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := chainTrace(7)
	if got := tr.ResponseTime(); got != 100*time.Millisecond {
		t.Errorf("ResponseTime = %v, want 100ms", got)
	}
	if got := tr.SpanCount(); got != 3 {
		t.Errorf("SpanCount = %d, want 3", got)
	}
	if got := tr.CompletedAt(); got != sim.Time(100*time.Millisecond) {
		t.Errorf("CompletedAt = %v, want 100ms", got)
	}
	empty := &Trace{}
	if empty.ResponseTime() != 0 || empty.SpanCount() != 0 || empty.CriticalPath() != nil {
		t.Error("empty trace accessors not zero-valued")
	}
}

func TestCriticalPathChain(t *testing.T) {
	tr := chainTrace(1)
	got := tr.CriticalPathServices()
	want := []string{"front-end", "cart", "cart-db"}
	if len(got) != len(want) {
		t.Fatalf("critical path = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("critical path = %v, want %v", got, want)
		}
	}
}

func TestCriticalPathPicksDominantBranch(t *testing.T) {
	tr := forkTrace(2)
	got := tr.CriticalPathServices()
	want := []string{"front-end", "catalogue"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("critical path = %v, want %v", got, want)
	}
}

func TestUpstreamProcessing(t *testing.T) {
	tr := chainTrace(1)
	// front-end PT = 100ms span - 80ms blocked = 20ms.
	got, ok := tr.UpstreamProcessing("cart")
	if !ok {
		t.Fatal("cart not on critical path")
	}
	if got != 20*time.Millisecond {
		t.Errorf("upstream PT = %v, want 20ms", got)
	}
	// cart-db upstream = front-end 20ms + cart 40ms.
	got, ok = tr.UpstreamProcessing("cart-db")
	if !ok || got != 60*time.Millisecond {
		t.Errorf("upstream PT = %v ok=%v, want 60ms", got, ok)
	}
	if _, ok := tr.UpstreamProcessing("payment"); ok {
		t.Error("found service not on path")
	}
	if got, ok := tr.UpstreamProcessing("front-end"); !ok || got != 0 {
		t.Errorf("front-end upstream = %v ok=%v, want 0 true", got, ok)
	}
}

// randomSpanTree builds a random span tree below depth levels. Services
// repeat across the tree, durations come from a handful of values so
// equal-duration siblings are common, and some children are Abandoned.
func randomSpanTree(rng *rand.Rand, depth int) *Span {
	services := []string{"a", "b", "c", "d"}
	arrival := sim.Time(rng.IntN(3)) * time.Millisecond
	dur := time.Duration(1+rng.IntN(4)) * time.Millisecond
	s := &Span{
		Service: services[rng.IntN(len(services))],
		Depth:   int32(depth),
		Arrival: arrival,
		Start:   arrival,
		End:     arrival + dur,
		Blocked: time.Duration(rng.Int64N(int64(dur) + 1)),
	}
	if depth < 4 {
		for i := rng.IntN(4); i > 0; i-- {
			c := randomSpanTree(rng, depth+1)
			c.Abandoned = rng.IntN(5) == 0
			s.Children = append(s.Children, c)
		}
	}
	return s
}

// TestUpstreamProcessingMatchesCriticalPath checks the in-place descent
// against the sum over the materialized CriticalPath slice, including
// tie-breaks, Abandoned skips and services that repeat along the path.
func TestUpstreamProcessingMatchesCriticalPath(t *testing.T) {
	viaSlice := func(tr *Trace, service string) (time.Duration, bool) {
		var sum time.Duration
		for _, s := range tr.CriticalPath() {
			if s.Service == service {
				return sum, true
			}
			sum += s.ProcessingTime()
		}
		return 0, false
	}
	rng := sim.NewKernel(0x7ace).Split(0x9a7)
	trees := []*Trace{{}}
	for i := 0; i < 500; i++ {
		trees = append(trees, &Trace{ID: ID(i), Root: randomSpanTree(rng, 0)})
	}
	for _, tr := range trees {
		for _, svc := range []string{"a", "b", "c", "d", "absent"} {
			got, gotOK := tr.UpstreamProcessing(svc)
			want, wantOK := viaSlice(tr, svc)
			if got != want || gotOK != wantOK {
				t.Fatalf("trace %d service %q: UpstreamProcessing = (%v, %v), critical-path sum = (%v, %v)",
					tr.ID, svc, got, gotOK, want, wantOK)
			}
		}
	}
}

var upstreamSink time.Duration

// TestUpstreamProcessingAllocFree pins the SCG model's per-trace call at
// zero allocations.
func TestUpstreamProcessingAllocFree(t *testing.T) {
	tr := chainTrace(3)
	avg := testing.AllocsPerRun(100, func() {
		upstreamSink, _ = tr.UpstreamProcessing("cart-db")
	})
	if avg != 0 {
		t.Fatalf("UpstreamProcessing allocates %.1f objects per call, want 0", avg)
	}
}

func TestFindSpan(t *testing.T) {
	tr := chainTrace(1)
	if s := tr.FindSpan("cart-db"); s == nil || s.Service != "cart-db" {
		t.Errorf("FindSpan(cart-db) = %v", s)
	}
	if s := tr.FindSpan("nope"); s != nil {
		t.Errorf("FindSpan(nope) = %v, want nil", s)
	}
}

func TestWalkOrder(t *testing.T) {
	tr := forkTrace(1)
	var order []string
	tr.Root.Walk(func(s *Span) { order = append(order, s.Service) })
	want := []string{"front-end", "cart", "catalogue"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("walk order %v, want %v", order, want)
		}
	}
}

func makeTraceAt(id ID, done time.Duration) *Trace {
	return &Trace{ID: id, Type: "t", Root: &Span{
		Service: "svc", Arrival: sim.Time(done - 10*time.Millisecond), Start: sim.Time(done - 10*time.Millisecond), End: sim.Time(done),
	}}
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
	if len(got) != 4 {
		t.Fatalf("window returned %d traces, want 4", len(got))
	}
	for i, tr := range got {
		if want := ID(i + 3); tr.ID != want {
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
	for _, tr := range w.All() {
		if tr.CompletedAt() < sim.Time(20*time.Second) {
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

func TestWarehouseDefaultRetention(t *testing.T) {
	w := NewWarehouse(0)
	if w.Retention() != DefaultRetention {
		t.Errorf("Retention = %v, want %v", w.Retention(), DefaultRetention)
	}
}

// TestWarehouseWindowExcludesOutside checks that Window drops traces
// completing before since: both test traces complete at 100ms.
func TestWarehouseWindowExcludesOutside(t *testing.T) {
	w := NewWarehouse(time.Hour)
	w.Add(chainTrace(1))
	w.Add(forkTrace(2))
	if got := w.Window(0, sim.Time(time.Hour)); len(got) != 2 {
		t.Fatalf("got %d traces in the full window, want 2", len(got))
	}
	if got := w.Window(sim.Time(200*time.Millisecond), sim.Time(time.Hour)); len(got) != 0 {
		t.Errorf("got %d traces outside the window, want 0", len(got))
	}
}

func TestWarehouseAllIsCopy(t *testing.T) {
	w := NewWarehouse(time.Hour)
	w.Add(chainTrace(1))
	all := w.All()
	all[0] = nil
	if w.All()[0] == nil {
		t.Error("All() aliases internal storage")
	}
}

// TestCriticalPathTieBreaksByDispatchOrder pins the documented rule:
// equal-duration parallel children resolve to the earliest-dispatched
// one (lowest Children index), keeping attribution deterministic.
func TestCriticalPathTieBreaksByDispatchOrder(t *testing.T) {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	first := &Span{Service: "cart", Depth: 1, Arrival: ms(10), Start: ms(10), End: ms(50)}
	second := &Span{Service: "catalogue", Depth: 1, Arrival: ms(5), Start: ms(5), End: ms(45)}
	fe := &Span{
		Service: "front-end", Depth: 0, Arrival: 0, Start: 0, End: ms(60),
		Children: []*Span{first, second}, // both 40ms wall time
	}
	tr := &Trace{ID: 1, Type: "tie", Root: fe}
	got := tr.CriticalPathServices()
	want := []string{"front-end", "cart"}
	if len(got) != len(want) || got[1] != want[1] {
		t.Fatalf("CriticalPathServices = %v, want %v (first-dispatched wins ties)", got, want)
	}
}

// TestCriticalPathChildOutlastsParentProcessing descends into a child
// even when the child's span ends after the parent's own processing
// window — the path follows structure (maximal-duration child), not
// containment.
func TestCriticalPathChildOutlastsParentProcessing(t *testing.T) {
	ms := func(n int) sim.Time { return time.Duration(n) * time.Millisecond }
	slow := &Span{Service: "cart-db", Depth: 2, Arrival: ms(10), Start: ms(10), End: ms(95)}
	cart := &Span{
		Service: "cart", Depth: 1, Arrival: ms(5), Start: ms(5), End: ms(96),
		Blocked: 85 * time.Millisecond, Children: []*Span{slow},
	}
	fe := &Span{
		Service: "front-end", Depth: 0, Arrival: 0, Start: 0, End: ms(100),
		Blocked: 91 * time.Millisecond, Children: []*Span{cart},
	}
	tr := &Trace{ID: 1, Type: "deep", Root: fe}
	got := tr.CriticalPathServices()
	want := []string{"front-end", "cart", "cart-db"}
	if len(got) != 3 {
		t.Fatalf("CriticalPathServices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CriticalPathServices = %v, want %v", got, want)
		}
	}
}

// TestCriticalPathSingleSpan covers the degenerate leaf-only trace.
func TestCriticalPathSingleSpan(t *testing.T) {
	tr := makeTraceAt(1, 50*time.Millisecond)
	path := tr.CriticalPath()
	if len(path) != 1 || path[0] != tr.Root {
		t.Fatalf("CriticalPath = %v, want just the root span", path)
	}
}
