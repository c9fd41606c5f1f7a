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
// pre-order, following its critical path on the way.
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
	// root is the service index of the last trace's root, the hint for
	// the next one's.
	root int
	// rows owns the columns: rts and every pt are views of its rows
	// from off on (see sealedScans).
	rows *rowStore
	off  int
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

// reset empties the scan for a window of n traces indexed by names,
// keeping its slices' arrays. Row ti of the scan is row off+ti of rows,
// whose entries must be zero for the rows the scan walks.
func (w *windowScan) reset(names []string, rows *rowStore, off, n int) {
	w.names = append(w.names[:0], names...)
	w.svc = resize(w.svc, len(names))
	clear(w.svc)
	w.calls = resize(w.calls, len(names)*len(names))
	clear(w.calls)
	w.root = -1
	w.rows, w.off = rows, off
	w.rts = rows.rts[off : off+n]
}

// resize returns s with length n, reusing its array when large enough.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// addTrace walks trace tr into row ti of the scan.
func (w *windowScan) addTrace(tr *trace.Trace, ti int) {
	w.rts[ti] = float64(tr.ResponseTime()) / float64(time.Millisecond)
	w.root = w.lookup(tr.Root.Service, w.root)
	w.walk(tr.Root, w.root, ti, true, 0)
}

// walk adds s and its subtree (pre-order) into trace ti's per-service
// processing times and visit counts, and marks every parent→child edge.
// path tells whether s is on the trace's critical path, and up is then
// the processing time above it on the path: each service of the path is
// credited at its first occurrence — Trace.UpstreamProcessing for every
// service of the path in the same pass.
func (w *windowScan) walk(s *trace.Span, si, ti int, path bool, up time.Duration) {
	st := &w.svc[si]
	if st.pt == nil {
		w.column(si)
	}
	pt := s.ProcessingTime()
	st.pt[ti] += float64(pt) / float64(time.Millisecond)
	st.visits++
	var next *trace.Span
	if path {
		if st.onPath != ti+1 {
			st.onPath = ti + 1
			st.upSum += up
			st.upN++
		}
		up += pt
		next = s.CriticalChild()
	}
	for j, c := range s.Children {
		ci := w.lookup(c.Service, w.svc[si].kids[j%scanKidHints])
		w.svc[si].kids[j%scanKidHints] = ci
		w.calls[si*len(w.names)+ci] = true
		w.walk(c, ci, ti, c == next, up)
		if c == next {
			next = nil // the path continues through the first match only
		}
	}
}

// column gives service si its processing-time column, the row store's
// column for the name.
func (w *windowScan) column(si int) {
	w.svc[si].pt = w.rows.column(w.names[si])[w.off : w.off+len(w.rts)]
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
