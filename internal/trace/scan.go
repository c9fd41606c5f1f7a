package trace

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"time"

	"sora/internal/sim"
)

// A trace's scan form keeps only what the SCG and SCT scans read of it
// (DESIGN.md §13 "Declared trace form"): per span its service, its child
// count, its processing time and whether it is on the critical path;
// per trace the root's End, its response time and its degraded flag. A
// warehouse no whole-trace reader declared stores this form
// (NewScanWarehouse); Trace.Scan reads it, and Records and Export,
// which need every field, panic on it.
//
// The stream opens with the trace header, three uvarints:
//
//	the root's End, zigzag
//	the root's Duration, zigzag
//	the span count << 1 | the root's Degraded flag
//
// Then come the spans in pre-order, a span before its subtree and
// children in call order, each a header byte followed by three values,
// each in the fewest whole bytes its length code allows, little-endian
// (as in the whole stream, stream.go):
//
//	Service
//	the child count
//	ProcessingTime
//
// The header byte holds the processing time's length code in bits 0–2,
// the short codes (0, 1, 2 or 8 bytes) of the child count in bits 3–4
// and of Service in bits 5–6, and in bit 7 whether the span is on the
// critical path. The encoder marks the path from the live tree by
// CriticalChildAt's rule, so the scan follows stored bits instead of
// comparing durations it no longer has. The stream ends without pad
// bytes: the decoder copies a value that ends within 8 bytes of the
// stream's end into a word of its own.

// ScanRecord is one span as the SCG and SCT scans read it: the
// projection of a Record onto the three things Eq. (3) needs, plus the
// subtree size that orders the records. Trace.Scan returns them in
// pre-order, as Records does. A ScanRecord holds no pointer.
type ScanRecord struct {
	PT      time.Duration // Record.ProcessingTime
	Service int32         // index into Names.Services
	Size    int32         // records in the subtree rooted here, this one included
	OnPath  bool          // on the critical path (see CriticalChildAt)
}

// scanHeaderBytes bounds a scan-form trace header: three uvarints.
const scanHeaderBytes = 3 * binary.MaxVarintLen64

// maxScanSpanBytes bounds the bytes encoding one scan-form span
// touches: the header byte and three values, each stored as a whole
// word.
const maxScanSpanBytes = 1 + 3*8

// The fields of a scan-form span's header byte besides the processing
// time's length code.
const (
	shScanKids = 3
	shScanSvc  = 5
	scanOnPath = 1 << 7
)

// shortCodes maps a 2-bit short length code to the length code of its
// bytes: 0, 1, 2 or 8.
var shortCodes = [4]uint32{0, 1, 2, 7}

// putShort stores v at b[k:] in the bytes of the shortest short code
// that holds it and returns the index past it and the short code. It
// stores a whole word, as putValue does.
func putShort(b []byte, k int, v uint64) (int, uint32) {
	var c uint32
	switch n := bits.Len64(v); {
	case n == 0:
		c = 0
	case n <= 8:
		c = 1
	case n <= 16:
		c = 2
	default:
		c = 3
	}
	binary.LittleEndian.PutUint64(b[k:k+8], v)
	return k + codes[shortCodes[c]].n, c
}

// scanValue reads the value at enc[k:] whose length code is the low
// three bits of code and returns it and the index past it, as value
// does in a padded whole stream. Within 8 bytes of the unpadded scan
// stream's end it copies the value's bytes into a word first.
func scanValue(enc []byte, k int, code uint32) (uint64, int) {
	c := &codes[code&7]
	if k+8 <= len(enc) {
		return binary.LittleEndian.Uint64(enc[k:k+8]) & c.mask, k + c.n
	}
	var w [8]byte
	copy(w[:], enc[k:k+c.n])
	return binary.LittleEndian.Uint64(w[:]), k + c.n
}

// errScanForm is the panic of a whole-trace read of a trace stored in
// its scan form.
const errScanForm = "trace: whole-trace read of a trace stored in its scan form; declare the reader with Cluster.RetainTraces before the run"

// criticalChild returns the index in s.Children of the child the
// critical path descends into from s, by CriticalChildAt's rule, or -1.
func criticalChild(s *Span) int {
	next, nextDur := -1, time.Duration(-1)
	for k, c := range s.Children {
		if c.Abandoned {
			continue
		}
		if d := c.Duration(); d > nextDur {
			next, nextDur = k, d
		}
	}
	return next
}

// spanPT returns the processing time of span s, as its Record's
// ProcessingTime would.
func spanPT(s *Span) time.Duration {
	return processingTime(s.Duration(), s.Blocked, s.RetryWait, s.BreakerWait)
}

// putScanHeader writes the scan-form header of the tree under root,
// which holds spans spans, at b[0:] and returns its length.
func putScanHeader(b []byte, root *Span, spans int) int {
	k := binary.PutUvarint(b, zig(root.End))
	k += binary.PutUvarint(b[k:], zig(root.Duration()))
	u := uint64(spans) << 1
	if root.Degraded {
		u |= 1
	}
	return k + binary.PutUvarint(b[k:], u)
}

// scanHeader reads the header of enc, a scan-form stream: the root's
// End and response time, the span count, the root's degraded flag and
// the index of the first span.
func scanHeader(enc []byte) (end sim.Time, rt time.Duration, spans int, degraded bool, i int) {
	u, k := binary.Uvarint(enc)
	i += k
	end = unzig(u)
	u, k = binary.Uvarint(enc[i:])
	i += k
	rt = unzig(u)
	u, k = binary.Uvarint(enc[i:])
	return end, rt, int(u >> 1), u&1 != 0, i + k
}

// appendScanSpans appends the scan-form spans of the tree under s to
// dst and returns dst and the number of spans written; on marks s as on
// the critical path.
//
//soravet:hotpath TestWarehouseAddAllocFree once per settled request on a scan-form warehouse: the spans are written into the warehouse's scratch buffer, which keeps its capacity
func appendScanSpans(dst []byte, s *Span, on bool) ([]byte, int) {
	i := len(dst)
	dst = slices.Grow(dst, maxScanSpanBytes)[:i+maxScanSpanBytes]
	b := dst[i:]
	k, cs := putShort(b, 1, uint64(uint32(s.service)))
	k, ck := putShort(b, k, uint64(len(s.Children)))
	k, cp := putValue(b, k, uint64(spanPT(s)))
	h := cs<<shScanSvc | ck<<shScanKids | cp
	if on {
		h |= scanOnPath
	}
	b[0] = byte(h)
	dst = dst[:i+k]
	crit := criticalChild(s)
	spans := 1
	for j, c := range s.Children {
		var m int
		dst, m = appendScanSpans(dst, c, on && j == crit)
		spans += m
	}
	return dst, spans
}

// appendScanTree appends the scan records of the live tree under s to
// dst; on marks s as on the critical path.
func appendScanTree(dst []ScanRecord, s *Span, on bool) []ScanRecord {
	i := len(dst)
	dst = slices.Grow(dst, 1)[:i+1]
	r := &dst[i]
	r.PT, r.Service, r.OnPath = spanPT(s), s.service, on
	crit := criticalChild(s)
	for j, c := range s.Children {
		dst = appendScanTree(dst, c, on && j == crit)
	}
	dst[i].Size = int32(len(dst) - i)
	return dst
}

// decodeScan decodes enc, a scan-form stream, into dst's array, growing
// it if needed, and returns the records. Every field of every record is
// written.
//
//soravet:hotpath TestRecordsDecodeAllocFree every SCG and SCT scan of a scan-form warehouse decodes each trace of its window into a buffer it keeps, so decoding allocates nothing once the buffer has grown
func decodeScan(dst []ScanRecord, enc []byte) []ScanRecord {
	_, _, n, _, i := scanHeader(enc)
	dst = slices.Grow(dst[:0], n)[:n]
	var stack [16]openTree[struct{}]
	open := stack[:0]
	for j := range dst {
		r := &dst[j]
		beginRecord(open)
		h := uint32(enc[i])
		svc, k := scanValue(enc, i+1, shortCodes[h>>shScanSvc&3])
		kids, k := scanValue(enc, k, shortCodes[h>>shScanKids&3])
		pt, k := scanValue(enc, k, h)
		i = k
		r.Service, r.PT, r.OnPath = int32(uint32(svc)), time.Duration(pt), h&scanOnPath != 0
		open = endRecord(open, j, kids, &r.Size, struct{}{})
	}
	return dst
}

// pathChild is projectStream's state for an open subtree: the child the
// critical path descends into so far, and that child's duration.
type pathChild struct {
	best    int32
	bestDur time.Duration
}

// projectStream decodes enc, a whole-form stream, into dst's array as
// scan records, growing it if needed, and returns them: each span's
// processing time, service and subtree size, and the critical path by
// CriticalChildAt's rule. It reads only the values those need. While
// the spans are read, a record's OnPath marks it as its parent's
// critical child so far; markPath then keeps the marks along the path.
//
//soravet:hotpath TestRecordsDecodeAllocFree every SCG and SCT scan of a whole-form warehouse projects each trace of its window into a buffer it keeps, so projecting allocates nothing once the buffer has grown
func projectStream(dst []ScanRecord, enc []byte) []ScanRecord {
	_, n, i := header(enc)
	dst = slices.Grow(dst[:0], n)[:n]
	var stack [16]openTree[pathChild]
	open := stack[:0]
	for j := range dst {
		r := &dst[j]
		h := binary.LittleEndian.Uint32(enc[i:])
		_, k := value(enc, i+4, h>>shArrival)
		queued, k := value(enc, k, h>>shQueued)
		service, k := value(enc, k, h>>shService)
		blocked, k := value(enc, k, h>>shBlocked)
		_, k = value(enc, k, h>>shDemand)
		_, k = value(enc, k, h>>shInflated)
		kids, k := value(enc, k, h>>shKids)
		svc, k := value(enc, k, h>>shSvc)
		_, k = value(enc, k, h>>shInst)
		var retry, breaker time.Duration
		if h&encBackoff != 0 {
			retry = time.Duration(binary.LittleEndian.Uint64(enc[k:]))
			breaker = time.Duration(binary.LittleEndian.Uint64(enc[k+8:]))
			k += 16
		}
		i = k
		// End − Arrival, wrapping as the Record's times do.
		d := time.Duration(queued) + time.Duration(service)
		r.PT, r.Service = processingTime(d, time.Duration(blocked), retry, breaker), int32(uint32(svc))
		p := beginRecord(open)
		r.OnPath = p == nil
		if p != nil && h&encAbandoned == 0 && d > p.e.bestDur {
			if p.e.best >= 0 {
				dst[p.e.best].OnPath = false
			}
			p.e.best, p.e.bestDur, r.OnPath = int32(j), d, true
		}
		open = endRecord(open, j, kids, &r.Size, pathChild{best: -1, bestDur: -1})
	}
	markPath(dst)
	return dst
}

// markPath turns recs' marks, each set on the record that is its
// parent's critical child and on the root, into the critical path: a
// mark stays only where every ancestor's is set.
func markPath(recs []ScanRecord) {
	path := 0
	for i := range recs {
		if i != path {
			recs[i].OnPath = false
			continue
		}
		path = -1
		for c, end := i+1, i+int(recs[i].Size); c < end; c += int(recs[c].Size) {
			if recs[c].OnPath {
				path = c
				break
			}
		}
	}
}

// Scan returns the trace's spans as pre-order scan records whose
// service ids index t.Names: what the SCG and SCT scans read. It reads
// every form a trace is in: a live tree, a whole stream (decoded and
// projected) or a scan-form stream. The records are written into
// *scratch as Records writes its own, so with a warmed scratch a call
// allocates nothing.
func (t *Trace) Scan(scratch *[]ScanRecord) []ScanRecord {
	var buf []ScanRecord
	if scratch != nil {
		buf = *scratch
	}
	switch {
	case t.Root != nil:
		buf = appendScanTree(buf[:0], t.Root, true)
	case len(t.enc) > 0 && t.scanForm:
		buf = decodeScan(buf, t.enc)
	case len(t.enc) > 0:
		buf = projectStream(buf, t.enc)
	default:
		t.checkReleased()
		return nil
	}
	if scratch != nil {
		*scratch = buf
	}
	return buf
}
