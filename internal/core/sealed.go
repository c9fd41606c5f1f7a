package core

import (
	"slices"
	"time"

	"sora/internal/trace"
)

// sealedBlockShift is log2 of the sealed block size: the warehouse's add
// order is cut into blocks of 512 consecutive traces.
const sealedBlockShift = 9

// sealedScans builds the window scans of one model, reusing what it
// learned from each trace across the decisions whose windows overlap
// (DESIGN.md §13 "Sealed blocks"). The warehouse's add order is cut into
// blocks of 1<<shift consecutive traces. The first scan whose window
// covers a whole block walks the block's settled traces once: their
// response and processing times go to the rows of a store that slides
// with the window, their counts, sums and edges to a sealedBlock. Every
// later scan covering the block finds its rows in place and adds its
// summary instead of walking the traces again. Only the partial blocks
// at the window's edges and the unsettled traces — those orphaned work
// may still change — are walked live every time. A merged scan equals a
// fresh scan of the same traces bit for bit.
type sealedScans struct {
	shift uint
	// names is the name table the blocks index by; a scan over another
	// table drops every block.
	names *trace.Names
	// blocks is a deque indexed by block number: blocks[i] summarizes
	// block base+i. Scans seal blocks in order, so it has no gaps.
	blocks []*sealedBlock
	base   uint64
	rows   rowStore
	// win is the merged scan handed out (valid until the next scan),
	// seal the scan a block is walked into to be summarized.
	win, seal windowScan
	// sealed and reused count blocks summarized and summaries merged.
	sealed, reused int
}

// sealedBlock summarizes one block's settled traces: the per-service
// counts and sums and the edges a windowScan keeps, both indexed by
// service id as the scan's are, without the per-trace columns (those
// stay in the row store) and without the critical-path marks a walk
// needs.
type sealedBlock struct {
	svc   []sealedService
	calls []bool
}

// sealedService is one service's statistics over a block.
type sealedService struct {
	visits int
	upSum  time.Duration
	upN    int
}

// scan returns the scan of the window traces, where unsettled lists the
// sequence numbers of the window's unsettled traces in ascending order,
// and every trace's records index names. The result is owned by s and
// valid until its next scan.
func (s *sealedScans) scan(traces trace.View, unsettled []uint64, names *trace.Names) *windowScan {
	if s.names != names {
		s.keep(0, 0)
		s.rows = rowStore{}
		s.names = names
	}
	size := uint64(1) << s.shift
	first, n := traces.First(), traces.Len()
	end := first + uint64(n)
	lo, hi := (first+size-1)>>s.shift, end>>s.shift // the whole blocks: [lo, hi)
	s.keep(lo, hi)
	s.rows.slide(first, n)

	w := &s.win
	w.reset(names, &s.rows, 0, n)
	next := 0 // first row not yet scanned
	for b := lo; b < hi; b++ {
		off := int(b<<s.shift - first)
		s.live(traces, next, off)
		for len(unsettled) > 0 && unsettled[0] < b<<s.shift {
			unsettled = unsettled[1:] // in a row already walked live
		}
		n := 0
		for n < len(unsettled) && unsettled[n] < (b+1)<<s.shift {
			n++
		}
		own := unsettled[:n]
		unsettled = unsettled[n:]
		s.merge(s.block(b, traces, own, off))
		for _, seq := range own {
			ti := int(seq - first)
			s.live(traces, ti, ti+1)
		}
		next = off + int(size)
	}
	s.live(traces, next, n)
	return w
}

// live walks rows [from, to) of the window into the merged scan.
func (s *sealedScans) live(traces trace.View, from, to int) {
	s.rows.zero(from, to)
	for ti := from; ti < to; ti++ {
		tr := traces.At(ti)
		s.win.addTrace(&tr, ti)
	}
}

// block returns the summary of block b, whose traces sit at row off of
// the window traces and whose unsettled sequence numbers are
// unsettled, sealing it on first use.
func (s *sealedScans) block(b uint64, traces trace.View, unsettled []uint64, off int) *sealedBlock {
	if i := int(b - s.base); i < len(s.blocks) {
		s.reused++
		return s.blocks[i]
	}
	size := 1 << s.shift
	sw := &s.seal
	sw.reset(s.names, &s.rows, off, size)
	s.rows.zero(off, off+size)
	first := b << s.shift
	for ti := range size {
		if len(unsettled) > 0 && unsettled[0] == first+uint64(ti) {
			unsettled = unsettled[1:]
			continue
		}
		tr := traces.At(off + ti)
		sw.addTrace(&tr, ti)
	}

	sb := &sealedBlock{
		svc:   make([]sealedService, len(sw.svc)),
		calls: slices.Clone(sw.calls),
	}
	for i := range sw.svc {
		st := &sw.svc[i]
		sb.svc[i] = sealedService{visits: st.visits, upSum: st.upSum, upN: st.upN}
	}
	s.sealed++
	s.blocks = append(s.blocks, sb)
	return sb
}

// keep retires every block outside [lo, hi). A deque that would have
// to grow at the front is emptied instead.
func (s *sealedScans) keep(lo, hi uint64) {
	if lo < s.base {
		clear(s.blocks)
		s.blocks = s.blocks[:0]
		s.base = lo
	}
	n := min(lo-s.base, uint64(len(s.blocks)))
	clear(s.blocks[:n])
	s.blocks = s.blocks[n:]
	s.base += n
	if len(s.blocks) == 0 {
		s.base = lo
	}
	if hi < s.base+uint64(len(s.blocks)) {
		n := max(hi, s.base) - s.base
		clear(s.blocks[n:])
		s.blocks = s.blocks[:n]
	}
}

// merge adds block summary sb into the merged scan: counts and sums
// added, edges ORed. The block's rows are already in place.
func (s *sealedScans) merge(sb *sealedBlock) {
	w := &s.win
	for i := range sb.svc {
		ss := &sb.svc[i]
		if ss.visits == 0 {
			continue
		}
		if w.svc[i].pt == nil {
			w.column(i)
		}
		st := &w.svc[i]
		st.visits += ss.visits
		st.upSum += ss.upSum
		st.upN += ss.upN
	}
	for i, called := range sb.calls {
		if called {
			w.calls[i] = true
		}
	}
}

// rowStore holds the per-trace columns of the window the last scan
// covered: row i is the trace with warehouse sequence number first+i.
// The rows of sealed blocks keep their values from one scan to the
// next; every other row is zeroed and rewritten by the scan that
// reaches it.
type rowStore struct {
	first uint64
	rts   []float64
	// cols[i] is the processing-time column of service id i, created
	// zeroed the first time a scan visits the service; nil before.
	cols [][]float64
}

// column returns the processing-time column of service id si.
func (r *rowStore) column(si int) []float64 {
	if si >= len(r.cols) {
		r.cols = append(r.cols, make([][]float64, si+1-len(r.cols))...)
	}
	if r.cols[si] == nil {
		r.cols[si] = make([]float64, len(r.rts), cap(r.rts))
	}
	return r.cols[si]
}

// zero clears rows [from, to) of every column.
func (r *rowStore) zero(from, to int) {
	clear(r.rts[from:to])
	for _, col := range r.cols {
		if col != nil {
			clear(col[from:to])
		}
	}
}

// slide moves the store to n rows from sequence number first, keeping
// the rows of the traces both windows share; the others are
// unspecified.
func (r *rowStore) slide(first uint64, n int) {
	lo := max(first, r.first)
	hi := min(first+uint64(n), r.first+uint64(len(r.rts)))
	move := func(col []float64) []float64 {
		out := resize(col, n)
		if lo < hi {
			copy(out[lo-first:hi-first], col[lo-r.first:hi-r.first])
		}
		return out
	}
	r.rts = move(r.rts)
	for i, col := range r.cols {
		if col != nil {
			r.cols[i] = move(col)
		}
	}
	r.first = first
}
