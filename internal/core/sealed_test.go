package core

import (
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/trace"
)

// scanView scans the warehouse window [since, until) through s.
func scanView(s *sealedScans, wh *trace.Warehouse, since, until sim.Time, names []string) (*windowScan, []*trace.Trace) {
	traces, first := wh.View(since, until)
	return s.scan(traces, first, wh.Unsettled(first, first+uint64(len(traces))), names), traces
}

// TestSealedScanRereadsUnsettled checks that a trace stored unsettled is
// never served from a sealed block: after a scan seals its block, an
// orphan appended to it and finished later must show in the next scan,
// which must again equal a fresh one.
func TestSealedScanRereadsUnsettled(t *testing.T) {
	names := fuzzServices[:4]
	wh := trace.NewWarehouse(time.Hour)
	var orphaned *trace.Trace
	for i := 0; i < 8; i++ {
		at := sim.Time(i) * sim.Time(10*time.Millisecond)
		child := &trace.Span{Service: "b", Depth: 1, Arrival: at + sim.Time(time.Millisecond), End: at + sim.Time(3*time.Millisecond)}
		child.Start = child.Arrival
		root := &trace.Span{Service: "a", Arrival: at, Start: at, End: at + sim.Time(5*time.Millisecond), Blocked: 2 * time.Millisecond, Children: []*trace.Span{child}}
		tr := &trace.Trace{ID: trace.ID(i + 1), Root: root}
		if i == 5 {
			wh.AddUnsettled(tr)
			orphaned = tr
		} else {
			wh.Add(tr)
		}
	}
	s := &sealedScans{shift: 1}
	check := func(when string) {
		t.Helper()
		w, traces := scanView(s, wh, 0, sim.Time(time.Second), names)
		if d := scanDiff(w, scanWindow(traces, names)); d != "" {
			t.Fatalf("%s: merged scan differs from a fresh one: %s", when, d)
		}
	}
	check("first scan")
	if s.sealed != 4 {
		t.Fatalf("sealed %d blocks, want 4", s.sealed)
	}

	// A timed-out call's request lands after the root completed: the
	// callee runs it as an orphan under the root, and it finishes later.
	root := orphaned.Root
	orphan := &trace.Span{Service: "c", Depth: 1, Arrival: root.End, Start: root.End, End: root.End, Abandoned: true}
	root.Children = append(root.Children, orphan)
	check("after the orphan arrived")
	orphan.End += sim.Time(4 * time.Millisecond)
	orphan.CPU = 4 * time.Millisecond
	check("after the orphan finished")
	w, _ := scanView(s, wh, 0, sim.Time(time.Second), names)
	if c := w.find("c"); w.svc[c].visits != 1 || w.svc[c].pt[5] != 4 {
		t.Errorf("orphan not seen: c has %d visits, pt %v", w.svc[c].visits, w.svc[c].pt)
	}
	if s.reused == 0 || s.sealed != 4 {
		t.Errorf("sealed %d blocks and reused %d; want 4 sealed once, then reused", s.sealed, s.reused)
	}
}

// FuzzSealedScan grows a warehouse of synthetic traces, some stored
// unsettled, mutates unsettled traces between queries the way orphaned
// work does, and checks that every scan merged from sealed blocks is
// exactly the fresh scan of its window. Windows start and end anywhere,
// so blocks are merged whole, cut at the edges, retired and re-sealed,
// also after either end of the window moves back.
func FuzzSealedScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 2, 1, 4, 7, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		names := fuzzServices[:4]
		s := &sealedScans{shift: uint(1 + r.next()%3)}
		wh := trace.NewWarehouse(time.Hour)
		var all, unsettled []*trace.Trace
		end := sim.Time(0)
		for op := 0; len(r.data) > 0 && op < 64; op++ {
			switch r.next() % 4 {
			case 0, 1: // a trace completes, settled or not
				root := decodeSpan(r, 0, 0)
				// Shift it so completions are in order.
				d := end - root.Arrival + sim.Time(r.next()%3)*sim.Time(time.Millisecond)
				root.Walk(func(s *trace.Span) { s.Arrival, s.Start, s.End = s.Arrival+d, s.Start+d, s.End+d })
				end = root.End
				tr := &trace.Trace{ID: trace.ID(len(all) + 1), Root: root}
				all = append(all, tr)
				if r.next()%2 == 1 {
					wh.AddUnsettled(tr)
					unsettled = append(unsettled, tr)
				} else {
					wh.Add(tr)
				}
			case 2: // orphaned work changes an unsettled trace
				if len(unsettled) == 0 {
					continue
				}
				tr := unsettled[r.next()%len(unsettled)]
				var spans []*trace.Span
				tr.Root.Walk(func(s *trace.Span) { spans = append(spans, s) })
				if sp := spans[r.next()%len(spans)]; sp.Abandoned {
					sp.End += sim.Time(1+r.next()%4) * sim.Time(time.Millisecond)
				} else {
					orphan := decodeSpan(r, sp.End, int(sp.Depth)+1)
					orphan.Abandoned = true
					sp.Children = append(sp.Children, orphan)
				}
			case 3: // a decision scans a window
				if len(all) == 0 {
					continue
				}
				since := all[r.next()%len(all)].CompletedAt()
				until := all[len(all)-1-r.next()%len(all)].CompletedAt() + 1
				w, traces := scanView(s, wh, since, until, names)
				if d := scanDiff(w, scanWindow(traces, names)); d != "" {
					t.Fatalf("op %d: window of %d traces in [%v, %v): merged scan differs from a fresh one: %s", op, len(traces), since, until, d)
				}
			}
		}
	})
}
