package trace

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"time"

	"sora/internal/sim"
)

// A stored trace is one encoded stream (DESIGN.md §13 "Retained
// traces"). Every value in it is stored in the fewest whole bytes that
// hold it, little-endian, with a 3-bit length code kept apart from it:
// code c means c bytes, except code 7, which means 8, and code 0 means
// the value is zero and takes no byte at all. The arrival difference,
// negative at the root, is zigzag-encoded, so a small value of either
// sign is short; the other times are stored as their two's-complement
// bits, so a negative one takes 8 bytes (no benchmark workload records
// one). Differences wrap in 64 bits both ways, so every value, MinInt64
// and MaxInt64 included, reads back exactly.
//
// The stream opens with the trace's header: a byte holding two codes
// (bits 0–2, 3–5), then the root's End (zigzag) and the span count.
// Then come the spans in pre-order — a span before its subtree, children
// in call order — each a 32-bit little-endian header word followed by
// its values in this order:
//
//	Arrival − the parent's Arrival (the root's: − End), zigzag
//	Start − Arrival
//	End − Start
//	Blocked
//	Demand
//	CPU − Demand
//	the child count
//	Service
//	Instance + 1
//	RetryWait, BreakerWait: 8 bytes each, if encBackoff
//
// The header word holds the span's three flags and encBackoff in bits
// 0–3 and the nine values' codes from bit 4 on (shArrival …). Size is
// not stored: the decoder rebuilds it from the child counts. A stored
// stream ends in streamPad zero bytes, so that the decoder can load a
// whole word at any value.
//
// Keeping the lengths in the header word, not in each value's bytes,
// lets the decoder find every value of a span without waiting on the
// one before it: the loads do not depend on one another.
const (
	encFailed    = 1 << iota // Record.Failed
	encDegraded              // Record.Degraded
	encAbandoned             // Record.Abandoned
	encBackoff               // RetryWait or BreakerWait is nonzero: both follow the ids
)

// The positions of the value codes in a span's header word.
const (
	shArrival = 4 + 3*iota
	shQueued
	shService
	shBlocked
	shDemand
	shInflated
	shKids
	shSvc
	shInst
)

// maxSpanBytes bounds the bytes encoding one span touches: the header
// word, nine values of at most 8 bytes (each stored as a whole word, the
// last one from at most 4+8*8) and the two backoff waits.
const maxSpanBytes = 4 + 9*8 + 2*8

// streamPad is the zero bytes a stored stream ends in: a zero-length
// value at its very end is still loaded as a word.
const streamPad = 8

// codes maps a length code to the bytes of its value and their mask in
// a little-endian word.
var codes = [8]struct {
	mask uint64
	n    int
}{{0, 0}, {1<<8 - 1, 1}, {1<<16 - 1, 2}, {1<<24 - 1, 3}, {1<<32 - 1, 4}, {1<<40 - 1, 5}, {1<<48 - 1, 6}, {1<<64 - 1, 8}}

// bitCodes maps a value's bit length to its length code, in the high
// nibble, and the bytes that code stores, in the low one.
var bitCodes = func() (t [65]uint8) {
	for n := range t {
		c := min((n+7)/8, 7)
		t[n] = uint8(c<<4 | codes[c].n)
	}
	return t
}()

// putValue stores v at b[k:] in the fewest whole bytes that hold it and
// returns the index past it and its length code. It stores a whole
// word, so b must have eight bytes from k; the bytes past the value are
// overwritten by whatever follows.
func putValue(b []byte, k int, v uint64) (int, uint32) {
	e := bitCodes[bits.Len64(v)]
	binary.LittleEndian.PutUint64(b[k:k+8], v)
	return k + int(e&15), uint32(e >> 4)
}

// value reads the value at enc[k:] whose length code is the low three
// bits of code and returns it and the index past it.
func value(enc []byte, k int, code uint32) (uint64, int) {
	c := &codes[code&7]
	return binary.LittleEndian.Uint64(enc[k:k+8]) & c.mask, k + c.n
}

// zig maps a signed value to an unsigned one, small magnitudes of
// either sign to small values; unzig inverts it.
func zig(v time.Duration) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzig(u uint64) time.Duration { return time.Duration(int64(u>>1) ^ -int64(u&1)) }

// headerBytes bounds a trace header: the codes byte and two values,
// each stored as a whole word.
const headerBytes = 1 + 2*8

// newStream returns the stream of the tree under root in a fresh slice
// of its own, byte for byte what Warehouse.store would store: the trace
// header, the spans, then streamPad zero bytes.
func newStream(root *Span) []byte {
	body, spans := appendSpans(nil, root, root.End)
	var head [headerBytes]byte
	h := head[:putHeader(head[:], root.End, spans)]
	enc := make([]byte, len(h)+len(body)+streamPad)
	copy(enc[copy(enc, h):], body)
	return enc
}

// putHeader writes the trace header for a root ending at end and a tree
// of spans spans at b[0:] and returns its length.
func putHeader(b []byte, end sim.Time, spans int) int {
	k, ce := putValue(b, 1, zig(end))
	k, cn := putValue(b, k, uint64(spans))
	b[0] = byte(ce | cn<<3)
	return k
}

// header reads the trace header of enc: the root's End, the span count
// and the index of the first span.
func header(enc []byte) (end sim.Time, spans, i int) {
	codes := uint32(enc[0])
	u, k := value(enc, 1, codes)
	n, k := value(enc, k, codes>>3)
	return unzig(u), int(n), k
}

// rootEnd returns the End of enc's root, the first value of the stream.
func rootEnd(enc []byte) sim.Time {
	u, _ := value(enc, 1, uint32(enc[0]))
	return unzig(u)
}

// rootArrival returns the Arrival of enc's root.
func rootArrival(enc []byte) sim.Time {
	end, _, i := header(enc)
	u, _ := value(enc, i+4, binary.LittleEndian.Uint32(enc[i:])>>shArrival)
	return end + unzig(u)
}

// appendSpans appends the encoded spans of the tree under s, whose
// parent arrived at parent, to dst and returns dst and the number of
// spans written. Each span's ids are copied as SetIDs stamped them.
func appendSpans(dst []byte, s *Span, parent sim.Time) ([]byte, int) {
	i := len(dst)
	dst = slices.Grow(dst, maxSpanBytes)[:i+maxSpanBytes]
	b := dst[i:]
	var h uint32
	if s.Failed {
		h |= encFailed
	}
	if s.Degraded {
		h |= encDegraded
	}
	if s.Abandoned {
		h |= encAbandoned
	}
	k, c := putValue(b, 4, zig(s.Arrival-parent))
	h |= c << shArrival
	k, c = putValue(b, k, uint64(s.Start-s.Arrival))
	h |= c << shQueued
	k, c = putValue(b, k, uint64(s.End-s.Start))
	h |= c << shService
	k, c = putValue(b, k, uint64(s.Blocked))
	h |= c << shBlocked
	k, c = putValue(b, k, uint64(s.Demand))
	h |= c << shDemand
	k, c = putValue(b, k, uint64(s.CPU-s.Demand))
	h |= c << shInflated
	k, c = putValue(b, k, uint64(len(s.Children)))
	h |= c << shKids
	k, c = putValue(b, k, uint64(uint32(s.service)))
	h |= c << shSvc
	k, c = putValue(b, k, uint64(uint32(s.instance+1)))
	h |= c << shInst
	if s.RetryWait != 0 || s.BreakerWait != 0 {
		h |= encBackoff
		binary.LittleEndian.PutUint64(b[k:], uint64(s.RetryWait))
		binary.LittleEndian.PutUint64(b[k+8:], uint64(s.BreakerWait))
		k += 16
	}
	binary.LittleEndian.PutUint32(b, h)
	dst = dst[:i+k]
	spans := 1
	for _, c := range s.Children {
		var m int
		dst, m = appendSpans(dst, c, s.Arrival)
		spans += m
	}
	return dst, spans
}

// openTree is a record whose subtree a decoder is still reading: its
// Size, which counts its children not yet begun until the subtree
// closes, its index and e, the decoder's own state for the subtree.
type openTree[E any] struct {
	size *int32
	j    int32
	e    E
}

// beginRecord begins the next record of a pre-order stream: it returns
// the innermost open subtree's record, the new record's parent, with one
// child fewer left to begin, or nil when the new record is the root.
func beginRecord[E any](open []openTree[E]) *openTree[E] {
	if len(open) == 0 {
		return nil
	}
	p := &open[len(open)-1]
	*p.size--
	return p
}

// endRecord sets size, the Size of record j with kids children, by the
// rule every decoder rebuilds subtree sizes from the child counts a
// stream stores: a record with children opens a subtree, with e as the
// decoder's state for it, and a leaf sizes 1 and closes every open
// subtree it is the last record of, sizing it. It returns the subtrees
// still open, innermost last.
func endRecord[E any](open []openTree[E], j int, kids uint64, size *int32, e E) []openTree[E] {
	if kids != 0 {
		*size = int32(kids)
		return append(open, openTree[E]{size: size, j: int32(j), e: e}) //soravet:allow hotpath grows past the array only for a trace more than 16 levels deep
	}
	*size = 1
	for len(open) > 0 {
		p := &open[len(open)-1]
		if *p.size != 0 {
			break
		}
		*p.size = int32(j + 1 - int(p.j))
		open = open[:len(open)-1]
	}
	return open
}

// decodeRecords decodes enc, one encoded trace, into dst's array,
// growing it if needed, and returns the records. Every field of every
// record is written, so dst's old contents do not matter.
//
//soravet:hotpath TestRecordsDecodeAllocFree every read of a stored trace: the SCG scan decodes each trace of its window into a buffer it keeps, so decoding allocates nothing once the buffer has grown
func decodeRecords(dst []Record, enc []byte) []Record {
	end, n, i := header(enc)
	dst = slices.Grow(dst[:0], n)[:n]
	var stack [16]openTree[struct{}]
	open := stack[:0]
	parent := end // the root's Arrival is stored against its End
	for j := range dst {
		r := &dst[j]
		if p := beginRecord(open); p != nil {
			parent = dst[p.j].Arrival
		}
		h := binary.LittleEndian.Uint32(enc[i:])
		u, k := value(enc, i+4, h>>shArrival)
		arrival := parent + unzig(u)
		u, k = value(enc, k, h>>shQueued)
		start := arrival + time.Duration(u)
		u, k = value(enc, k, h>>shService)
		r.Arrival, r.Start, r.End = arrival, start, start+time.Duration(u)
		u, k = value(enc, k, h>>shBlocked)
		r.Blocked = time.Duration(u)
		u, k = value(enc, k, h>>shDemand)
		r.Demand = time.Duration(u)
		u, k = value(enc, k, h>>shInflated)
		r.CPU = r.Demand + time.Duration(u)
		kids, k := value(enc, k, h>>shKids)
		u, k = value(enc, k, h>>shSvc)
		r.Service = int32(uint32(u))
		u, k = value(enc, k, h>>shInst)
		r.Instance = int32(uint32(u) - 1)
		r.RetryWait, r.BreakerWait = 0, 0
		if h&encBackoff != 0 {
			r.RetryWait = time.Duration(binary.LittleEndian.Uint64(enc[k:]))
			r.BreakerWait = time.Duration(binary.LittleEndian.Uint64(enc[k+8:]))
			k += 16
		}
		i = k
		r.Failed = h&encFailed != 0
		r.Degraded = h&encDegraded != 0
		r.Abandoned = h&encAbandoned != 0
		open = endRecord(open, j, kids, &r.Size, struct{}{})
	}
	return dst
}
