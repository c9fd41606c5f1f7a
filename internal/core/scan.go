package core

import (
	"time"

	"sora/internal/trace"
)

// windowScan is everything one SCG decision reads from a trace window,
// gathered in a single pass over its spans: the per-trace end-to-end
// response times and per-service processing times phase 1 correlates,
// the Eq. (3) upstream sums phase 2 averages, and the caller→callee
// edges the behind-pool check follows. Each trace is read as its
// pre-order records in one linear pass, following its critical path
// on the way.
//
// Services are indexed by their id in the name table the window's
// traces share (for the cluster's traces, the order of
// Cluster.ServiceNames). Every query ranges over indices, so results do
// not depend on map iteration order.
type windowScan struct {
	table *trace.Names
	names []string
	svc   []scanService
	// rts holds each trace's end-to-end response time in ms, aligned
	// with the per-service pt vectors.
	rts []float64
	// calls[caller*len(names)+callee] records a parent→child span edge
	// between the two services anywhere in the window.
	calls []bool
	// rows owns the columns: rts and every pt are views of its rows
	// from off on (see sealedScans).
	rows *rowStore
	off  int
	// buf receives each trace's records as Trace.Records decodes them,
	// open the ancestors of the record being read.
	buf  []trace.Record
	open []openSpan
}

// openSpan is an ancestor of the record a scan is reading: its
// service and the index one past its subtree.
type openSpan struct {
	svc, end int
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
}

// reset empties the scan for a window of n traces whose records index
// names, keeping its slices' arrays. Row ti of the scan is row off+ti
// of rows, whose entries must be zero for the rows the scan walks.
func (w *windowScan) reset(names *trace.Names, rows *rowStore, off, n int) {
	w.table = names
	w.names = names.Services()
	w.svc = resize(w.svc, len(w.names))
	clear(w.svc)
	w.calls = resize(w.calls, len(w.names)*len(w.names))
	clear(w.calls)
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

// addTrace reads trace tr, whose records index the scan's name table,
// into row ti of the scan: its processing times and visit counts per
// service in pre-order, every parent→child edge, and for each service
// of its critical path, at the service's first occurrence there, the
// processing time above it on the path — Trace.UpstreamProcessing for
// every service of the path in the same pass.
func (w *windowScan) addTrace(tr *trace.Trace, ti int) {
	recs := tr.Records(&w.buf)
	w.grow()
	w.rts[ti] = float64(recs[0].Duration()) / float64(time.Millisecond)
	n := len(w.names)
	path := 0 // the next record on the critical path
	var up time.Duration
	open := w.open[:0]
	for i := range recs {
		r := &recs[i]
		for len(open) > 0 && open[len(open)-1].end <= i {
			open = open[:len(open)-1]
		}
		si := int(r.Service)
		if len(open) > 0 {
			w.calls[open[len(open)-1].svc*n+si] = true
		}
		st := &w.svc[si]
		if st.pt == nil {
			w.column(si)
		}
		pt := r.ProcessingTime()
		st.pt[ti] += float64(pt) / float64(time.Millisecond)
		st.visits++
		if i == path {
			if st.onPath != ti+1 {
				st.onPath = ti + 1
				st.upSum += up
				st.upN++
			}
			up += pt
			path = trace.CriticalChildAt(recs, i)
		}
		if r.Size > 1 {
			open = append(open, openSpan{svc: si, end: i + int(r.Size)})
		}
	}
	w.open = open
}

// column gives service si its processing-time column, the row store's
// column for the service.
func (w *windowScan) column(si int) {
	w.svc[si].pt = w.rows.column(si)[w.off : w.off+len(w.rts)]
}

// find returns the index of service name, or -1 if the name table does
// not hold it.
func (w *windowScan) find(name string) int {
	for i, n := range w.names {
		if n == name {
			return i
		}
	}
	return -1
}

// grow widens the scan to the services its name table has gained since
// the scan last looked: reading a live tree interns the names it meets
// for the first time.
func (w *windowScan) grow() {
	names := w.table.Services()
	old, n := len(w.names), len(names)
	if n == old {
		return
	}
	calls := make([]bool, n*n)
	for r := 0; r < old; r++ {
		copy(calls[r*n:r*n+old], w.calls[r*old:(r+1)*old])
	}
	w.calls = calls
	w.names = names
	w.svc = append(w.svc, make([]scanService, n-old)...)
}

// calledBy reports whether a span of service caller had a child span of
// service callee in the window.
func (w *windowScan) calledBy(caller, callee int) bool {
	return w.calls[caller*len(w.names)+callee]
}
