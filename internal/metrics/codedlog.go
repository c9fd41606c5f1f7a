package metrics

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"time"

	"sora/internal/sim"
)

// codedBlockBytes is the size of one codedLog block. 8 KiB is an
// ordinary size-classed allocation, and at the 7 B a steady-state entry
// takes it holds about 1,200 entries.
const codedBlockBytes = 8 << 10

// maxEntryBytes is the longest entry: a header byte and two 8-byte
// values. An append opens a new block unless this much is free, so an
// 8-byte load or store at any value of any entry stays in its block.
const maxEntryBytes = 1 + 8 + 8

// Header byte of an entry: bits 0–2 code the byte count of the At delta,
// bits 3–5 that of the response time, bit 6 is the degraded flag.
const (
	rtShift       = 3
	codeMask      = 7
	degradedShift = 6
	degradedBit   = 1 << degradedShift
)

// codeWidth is the byte count a 3-bit code stands for, and codeValue
// masks an 8-byte little-endian load down to that many bytes.
// entryBytes is the length of the entry a header byte starts.
var (
	codeWidth  = [8]int{0, 1, 2, 3, 4, 5, 6, 8}
	codeValue  = [8]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<64 - 1}
	entryBytes = func() (n [256]uint8) {
		for h := range n {
			n[h] = uint8(1 + codeWidth[h&codeMask] + codeWidth[h>>rtShift&codeMask])
		}
		return n
	}()
)

// widthCode returns the smallest code whose width holds v.
func widthCode(v uint64) byte {
	return byte(min((bits.Len64(v)+7)>>3, 7))
}

// codedBlock is one directory record of a codedLog.
type codedBlock struct {
	buf   *[codedBlockBytes]byte
	first sim.Time // At of the block's first entry, which codes a zero delta
	start int      // entries appended to the log before the block's first
	n     int32    // entries in the block
	used  int32    // bytes of buf they take
}

// codedPos is the place of one entry of a codedLog: entry e of block b,
// starting at byte p, after an entry completed at at (the block's first
// At when e is 0).
type codedPos struct {
	b, e, p int
	at      sim.Time
}

// codedLog is the storage behind CompletionLog: completions in append
// order as a delta-coded byte stream in fixed blocks. An entry is a
// header byte, then the At delta from the previous entry and the
// response time, each little-endian in the fewest of 0–6 or 8 bytes
// that hold it. Each block records the At of its first entry, so every
// block decodes on its own and a search by time bisects the directory
// before it decodes one block.
//
// Prune retires whole blocks to a free list, capped as blockLog caps
// its own, and keeps the place of the oldest live entry in the first
// block that survives, so head.e counts the entries dropped from it.
// Entries are never moved or coded again.
type codedLog struct {
	blocks []codedBlock             // live blocks, oldest first
	free   []*[codedBlockBytes]byte // retired blocks awaiting reuse
	head   codedPos                 // the oldest live entry; head.b is 0
	n      int                      // live entries
	newest sim.Time                 // At of the newest entry; meaningful while n > 0
	tail   *codedBlock              // &blocks[len(blocks)-1], nil when there are none
}

// push appends the entry (at, rt, degraded); at must not precede the
// newest entry and rt must not be negative.
func (l *codedLog) push(at sim.Time, rt time.Duration, degraded bool) {
	b := l.tail
	if b == nil || b.used > codedBlockBytes-maxEntryBytes {
		b = l.grow(at)
	}
	d := uint64(at - l.newest)
	h := widthCode(d) | widthCode(uint64(rt))<<rtShift
	if degraded {
		h |= degradedBit
	}
	p := int(b.used)
	buf := b.buf
	buf[p] = h
	binary.LittleEndian.PutUint64(buf[p+1:], d)
	binary.LittleEndian.PutUint64(buf[p+1+codeWidth[h&codeMask]:], uint64(rt))
	b.used += int32(entryBytes[h])
	b.n++
	l.n++
	l.newest = at
}

// grow opens an empty block whose first entry will be at, reusing a
// retired block when the free list has one, and returns it as the new
// tail. Setting newest to at makes that entry code a zero delta; in an
// empty log that entry becomes the head.
func (l *codedLog) grow(at sim.Time) *codedBlock {
	var buf *[codedBlockBytes]byte
	if k := len(l.free) - 1; k >= 0 {
		buf = l.free[k]
		l.free[k] = nil
		l.free = l.free[:k]
	} else {
		buf = new([codedBlockBytes]byte) //soravet:allow hotpath block refill on a free-list miss: once per ~1,200 appends, and only while the log is growing past its largest live size
	}
	start := 0
	if k := len(l.blocks) - 1; k >= 0 {
		start = l.blocks[k].start + int(l.blocks[k].n)
	} else {
		l.head = codedPos{at: at}
	}
	l.blocks = append(l.blocks, codedBlock{buf: buf, first: at, start: start}) //soravet:allow hotpath block directory append: the directory keeps its capacity across drops, so it grows only with the live block count
	l.newest = at
	l.tail = &l.blocks[len(l.blocks)-1]
	return l.tail
}

// drop discards the k oldest entries; pos is the place of the entry that
// becomes the oldest, as lowerBound returned it with k.
func (l *codedLog) drop(k int, pos codedPos) {
	if k <= 0 {
		return
	}
	l.n -= k
	dead := pos.b
	pos.b = 0
	l.head = pos
	if l.n == 0 {
		dead, l.head = len(l.blocks), codedPos{}
	}
	live := len(l.blocks) - dead
	for _, b := range l.blocks[:dead] {
		if len(l.free) < live {
			l.free = append(l.free, b.buf)
		}
	}
	if len(l.free) > live {
		clear(l.free[live:])
		l.free = l.free[:live]
	}
	copy(l.blocks, l.blocks[dead:])
	clear(l.blocks[live:])
	l.blocks = l.blocks[:live]
	l.tail = nil
	if live > 0 {
		l.tail = &l.blocks[live-1]
	}
}

// index returns the live index of the entry at pos.
func (l *codedLog) index(pos codedPos) int {
	return l.blocks[pos.b].start - l.blocks[0].start - l.head.e + pos.e
}

// lowerBound returns the index and the place of the first live entry
// with At >= t, or n and no place if none has. A block's entries are no
// later than the next block's first, so the answer is in the last block
// whose first At is before t, or it is the first entry of the block
// after it.
func (l *codedLog) lowerBound(t sim.Time) (int, codedPos) {
	if l.n == 0 || t > l.newest {
		return l.n, codedPos{}
	}
	j := sort.Search(len(l.blocks), func(j int) bool { return l.blocks[j].first >= t })
	if j == 0 {
		return 0, l.head
	}
	pos := codedPos{b: j - 1, at: l.blocks[j-1].first}
	if j == 1 {
		pos = l.head
	}
	b := &l.blocks[pos.b]
	for ; pos.e < int(b.n); pos.e++ {
		h := b.buf[pos.p]
		at := pos.at + sim.Time(binary.LittleEndian.Uint64(b.buf[pos.p+1:])&codeValue[h&codeMask])
		if at >= t {
			return l.index(pos), pos
		}
		pos.at = at
		pos.p += int(entryBytes[h])
	}
	// t <= newest, so block j-1 is not the last one.
	pos = codedPos{b: j, at: l.blocks[j].first}
	return l.index(pos), pos
}

// runLen is the entry count of a codedReader's decode buffer.
const runLen = 256

// codedReader decodes a window of a codedLog in runs of up to runLen
// entries. Readers declare it as a local, so its buffer lives in their
// frame; a run is valid until the next call to next. (A callback taking
// the run would move the buffer to the heap: arguments of a call
// through a func value escape.)
type codedReader struct {
	l    *codedLog
	pos  codedPos // the next entry to decode
	left int      // entries still to decode
	buf  [runLen]completion
}

// seek positions r at the entries of l with At in [since, until) and
// returns their count; an inverted window is empty.
func (r *codedReader) seek(l *codedLog, since, until sim.Time) int {
	lo, pos := l.lowerBound(since)
	hi, _ := l.lowerBound(until)
	r.l, r.pos, r.left = l, pos, max(hi-lo, 0)
	return r.left
}

// next decodes the next run of entries, or returns an empty run when
// the window is done.
//
//soravet:hotpath TestCompletionLogReadAllocFree every windowed reader of a CompletionLog decodes here; Counts and CountsByOutcome over several blocks allocate nothing
func (r *codedReader) next() []completion {
	if r.left <= 0 {
		return nil
	}
	out := r.buf[:min(r.left, runLen)]
	r.left -= len(out)
	b := &r.l.blocks[r.pos.b]
	buf, n := b.buf, int(b.n)
	e, p, at := r.pos.e, r.pos.p, r.pos.at
	for i := range out {
		if e == n {
			r.pos.b++
			b = &r.l.blocks[r.pos.b]
			buf, n = b.buf, int(b.n)
			e, p, at = 0, 0, b.first
		}
		h := buf[p]
		at += sim.Time(binary.LittleEndian.Uint64(buf[p+1:]) & codeValue[h&codeMask])
		rt := int64(binary.LittleEndian.Uint64(buf[p+1+codeWidth[h&codeMask]:]) & codeValue[h>>rtShift&codeMask])
		rt ^= -int64(h >> degradedShift & 1) // a degraded entry reads as ^RT
		out[i] = completion{at: at, rt: time.Duration(rt)}
		p += int(entryBytes[h])
		e++
	}
	r.pos.e, r.pos.p, r.pos.at = e, p, at
	return out
}
