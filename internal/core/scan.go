package core

import (
	"time"

	"sora/internal/trace"
)

// windowScan is everything one SCG decision reads from a trace window,
// gathered in a single pass over its spans: the per-trace end-to-end
// response times and per-service processing times phase 1 correlates,
// the Eq. (3) upstream sums phase 2 averages, and the caller→callee
// edges the behind-pool check follows. Each trace is walked once in
// pre-order and then, while its spans are still in cache, its critical
// path is descended once.
//
// Services are indexed by the order of the names the scan was built
// with (the cluster's service order); a span naming any other service
// is appended in first-visit order. Every query ranges over indices,
// so results do not depend on map iteration order.
type windowScan struct {
	names []string
	svc   []scanService
	// rts holds each trace's end-to-end response time in ms, aligned
	// with the per-service pt vectors.
	rts []float64
	// calls[caller*len(names)+callee] records a parent→child span edge
	// between the two services anywhere in the window.
	calls []bool
}

// scanService is one service's statistics over the window.
type scanService struct {
	// pt is the per-trace processing time in ms, summed in span
	// pre-order within a trace; nil until the window visits the service.
	pt []float64
	// visits counts the service's spans in the window.
	visits int
	// upSum is Σ over traces whose critical path passes through the
	// service of the processing time strictly above its first occurrence
	// on that path; upN counts those traces.
	upSum time.Duration
	upN   int
	// onPath is one more than the index of the last trace whose critical
	// path counted the service, so a service repeated on one path counts
	// once, at its first occurrence.
	onPath int
	// kids[j] is the service index of the last j-th child seen under a
	// span of this service. Call order is fixed per request type, so it
	// almost always names the next span's j-th child too, and checking
	// it first spares searching the service names.
	kids [scanKidHints]int
}

// scanKidHints is how many child positions per service keep a hint;
// later positions share them modulo scanKidHints.
const scanKidHints = 8

// scanWindow builds the scan of traces, indexing services in the order
// of names. The traces must have non-nil roots (the warehouse stores no
// others).
func scanWindow(traces []*trace.Trace, names []string) *windowScan {
	n := len(names)
	w := &windowScan{
		names: names[:n:n], // appending unknown names never writes into the caller's array
		svc:   make([]scanService, n),
		rts:   make([]float64, len(traces)),
		calls: make([]bool, n*n),
	}
	root := -1
	for ti, tr := range traces {
		w.rts[ti] = float64(tr.ResponseTime()) / float64(time.Millisecond)
		root = w.lookup(tr.Root.Service, root)
		w.walk(tr.Root, root, ti)
		w.descend(tr.Root, root, ti)
	}
	return w
}

// walk adds s and its subtree (pre-order) into trace ti's per-service
// processing times and visit counts, and marks every parent→child edge.
func (w *windowScan) walk(s *trace.Span, si, ti int) {
	st := &w.svc[si]
	if st.pt == nil {
		st.pt = make([]float64, len(w.rts))
	}
	st.pt[ti] += float64(s.ProcessingTime()) / float64(time.Millisecond)
	st.visits++
	for j, c := range s.Children {
		ci := w.lookup(c.Service, w.svc[si].kids[j%scanKidHints])
		w.svc[si].kids[j%scanKidHints] = ci
		w.calls[si*len(w.names)+ci] = true
		w.walk(c, ci, ti)
	}
}

// descend walks trace ti's critical path from root (service index si),
// crediting each service at its first occurrence with the processing
// time accumulated above it — Trace.UpstreamProcessing for every service
// of the path in one descent.
func (w *windowScan) descend(root *trace.Span, si, ti int) {
	var up time.Duration
	for s := root; ; {
		if st := &w.svc[si]; st.onPath != ti+1 {
			st.onPath = ti + 1
			st.upSum += up
			st.upN++
		}
		up += s.ProcessingTime()
		next := s.CriticalChild()
		if next == nil {
			return
		}
		si = w.lookupChild(si, next.Service)
		s = next
	}
}

// lookup returns the index of service name, trying hint first and
// registering an unknown name at the end.
func (w *windowScan) lookup(name string, hint int) int {
	if hint >= 0 && w.names[hint] == name {
		return hint
	}
	if i := w.find(name); i >= 0 {
		return i
	}
	return w.add(name)
}

// find returns the index of service name, or -1 if the window never
// visited it and the scan was not built with it. A linear search: the
// hints resolve nearly every span, and a decision has a few dozen
// services at most.
func (w *windowScan) find(name string) int {
	for i, n := range w.names {
		if n == name {
			return i
		}
	}
	return -1
}

// lookupChild returns the index of name, the service of a child of a
// span of service parent, trying the parent's positional hints first.
func (w *windowScan) lookupChild(parent int, name string) int {
	for _, k := range &w.svc[parent].kids {
		if w.names[k] == name {
			return k
		}
	}
	return w.lookup(name, -1)
}

// add appends a service the scan was not built with, widening the edge
// matrix to the new service count.
func (w *windowScan) add(name string) int {
	old := len(w.names)
	n := old + 1
	calls := make([]bool, n*n)
	for r := 0; r < old; r++ {
		copy(calls[r*n:r*n+old], w.calls[r*old:(r+1)*old])
	}
	w.calls = calls
	w.names = append(w.names, name)
	w.svc = append(w.svc, scanService{})
	return old
}

// calledBy reports whether a span of service caller had a child span of
// service callee in the window.
func (w *windowScan) calledBy(caller, callee int) bool {
	return w.calls[caller*len(w.names)+callee]
}
