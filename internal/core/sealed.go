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
// at the window's edges, the unsettled traces — those orphaned work may
// still change — and blocks naming a service outside the base names are
// walked live every time. A merged scan equals a fresh scan of the same
// traces bit for bit.
type sealedScans struct {
	shift uint
	// names are the service names the blocks index by; a scan asking
	// for other names drops every block.
	names []string
	// blocks is a deque indexed by block number: blocks[i] summarizes
	// block base+i, or is nil if that block is walked live. Scans seal
	// blocks in order, so it has no gaps.
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
// counts and sums and the edges a windowScan keeps, both indexed by the
// base names, without the per-trace columns (those stay in the row
// store) and without the hints and critical-path marks a walk needs.
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

// scan returns the scan of the window traces, where traces[i] has
// warehouse sequence number first+i and unsettled lists the sequence
// numbers of the window's unsettled traces in ascending order. The
// result is owned by s and valid until its next scan.
func (s *sealedScans) scan(traces []*trace.Trace, first uint64, unsettled []uint64, names []string) *windowScan {
	if !slices.Equal(s.names, names) {
		s.keep(0, 0)
		s.rows = rowStore{}
		s.names = append(s.names[:0], names...)
	}
	size := uint64(1) << s.shift
	end := first + uint64(len(traces))
	lo, hi := (first+size-1)>>s.shift, end>>s.shift // the whole blocks: [lo, hi)
	s.keep(lo, hi)
	s.rows.slide(first, len(traces))

	w := &s.win
	w.reset(names, &s.rows, 0, len(traces))
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
		blk := s.block(b, traces[off:off+int(size)], own, off)
		if blk == nil {
			next = off // walked live with the rows after it
			continue
		}
		s.merge(blk)
		for _, seq := range own {
			ti := int(seq - first)
			s.live(traces, ti, ti+1)
		}
		next = off + int(size)
	}
	s.live(traces, next, len(traces))
	return w
}

// live walks rows [from, to) of the window into the merged scan.
func (s *sealedScans) live(traces []*trace.Trace, from, to int) {
	s.rows.zero(from, to)
	for ti := from; ti < to; ti++ {
		s.win.addTrace(traces[ti], ti)
	}
}

// block returns the summary of block b, whose traces blk sit at row off
// and whose unsettled sequence numbers are unsettled, sealing it on
// first use. It returns nil for a block whose traces name a service
// outside the base names: such a block is always walked live, which
// keeps the window's first-visit order of those names.
func (s *sealedScans) block(b uint64, blk []*trace.Trace, unsettled []uint64, off int) *sealedBlock {
	if i := int(b - s.base); i < len(s.blocks) {
		if s.blocks[i] != nil {
			s.reused++
		}
		return s.blocks[i]
	}
	sw := &s.seal
	sw.reset(s.names, &s.rows, off, len(blk))
	s.rows.zero(off, off+len(blk))
	first := b << s.shift
	for ti, tr := range blk {
		if len(unsettled) > 0 && unsettled[0] == first+uint64(ti) {
			unsettled = unsettled[1:]
			continue
		}
		sw.addTrace(tr, ti)
	}

	var sb *sealedBlock
	if len(sw.names) == len(s.names) {
		sb = &sealedBlock{
			svc:   make([]sealedService, len(sw.svc)),
			calls: slices.Clone(sw.calls),
		}
		for i := range sw.svc {
			st := &sw.svc[i]
			sb.svc[i] = sealedService{visits: st.visits, upSum: st.upSum, upN: st.upN}
		}
		s.sealed++
	}
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
	n, wn := len(s.names), len(w.names)
	for caller := range n {
		for callee, called := range sb.calls[caller*n : (caller+1)*n] {
			if called {
				w.calls[caller*wn+callee] = true
			}
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
	// cols[i] is the processing-time column of service names[i],
	// created zeroed the first time a scan visits the service.
	names []string
	cols  [][]float64
}

// column returns the processing-time column of service name.
func (r *rowStore) column(name string) []float64 {
	for i, n := range r.names {
		if n == name {
			return r.cols[i]
		}
	}
	col := make([]float64, len(r.rts), cap(r.rts))
	r.names = append(r.names, name)
	r.cols = append(r.cols, col)
	return col
}

// zero clears rows [from, to) of every column.
func (r *rowStore) zero(from, to int) {
	clear(r.rts[from:to])
	for _, col := range r.cols {
		clear(col[from:to])
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
		r.cols[i] = move(col)
	}
	r.first = first
}
