package trace

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"sora/internal/sim"
)

// socialCall is one node of a Social Network request type's call tree.
type socialCall struct {
	svc  int32
	kids []socialCall
}

// composePost is Social Network's compose-post call tree (internal/
// topology): the front end (0) calls compose-post, which calls the
// unique-id, text (with url-shorten and user-tag), media, user (with
// its memcached and MongoDB), write-home-timeline (with the home
// timeline's Redis and the social graph and its Redis) and
// write-user-timeline (with the user timeline's MongoDB) services in
// turn: 16 spans.
var composePost = socialCall{0, []socialCall{{1, []socialCall{
	{2, nil},
	{3, []socialCall{{4, nil}, {5, nil}}},
	{6, nil},
	{7, []socialCall{{8, nil}, {9, nil}}},
	{10, []socialCall{{11, nil}, {12, []socialCall{{13, nil}}}}},
	{14, []socialCall{{15, nil}}},
}}}}

// socialTrace builds a trace of call tree c arriving at arrival, timed
// as a loaded cluster times one: every visit queues for up to 200 µs
// half the time, does 50 µs–1 ms of request work, calls its children in
// turn (each call crossing 20–100 µs of network), then does its response
// work; PS contention stretches its CPU time by up to 30% over its
// demand. Each service runs two pods.
func socialTrace(rng *rand.Rand, c socialCall, arrival sim.Time) *Span {
	work := func() time.Duration { return time.Duration(50_000 + rng.IntN(950_000)) }
	s := &Span{Arrival: arrival, Start: arrival}
	s.SetIDs(c.svc, 2*c.svc+int32(rng.IntN(2)))
	if rng.IntN(2) == 0 {
		s.Start += sim.Time(rng.IntN(200_000))
	}
	req, res := work(), work()
	now := s.Start + req
	for _, k := range c.kids {
		child := socialTrace(rng, k, now+sim.Time(20_000+rng.IntN(80_000)))
		s.Children = append(s.Children, child)
		back := child.End + sim.Time(20_000+rng.IntN(80_000))
		s.Blocked += back - now
		now = back
	}
	s.End = now + res
	s.Demand = req + res
	s.CPU = s.Demand + time.Duration(rng.Float64()*0.3*float64(s.Demand))
	return s
}

// socialStreamBudget is the most bytes a span of a Social Network trace
// may take in the retained whole stream, and socialScanBudget in the
// scan form. A span's Record is 80 B; the whole stream spends about 22.1
// on socialTrace's spans.
const (
	socialStreamBudget = 24
	socialScanBudget   = 8
)

// TestSocialStreamSize pins the retained size of settled traces:
// compacting compose-post traces with millisecond-scale times must stay
// within socialStreamBudget bytes a span in the whole form and
// socialScanBudget in the scan form, so that a format change that
// bloats retained history fails here before it shows in the
// benchmark's peak heap.
func TestSocialStreamSize(t *testing.T) {
	for _, c := range []struct {
		form   string
		w      *Warehouse
		budget int
	}{
		{"whole", NewWarehouse(time.Hour), socialStreamBudget},
		{"scan", NewScanWarehouse(time.Hour), socialScanBudget},
	} {
		rng := rand.New(rand.NewPCG(3, 28))
		names := newDecodeNames()
		bytes, spans := 0, 0
		for i := range 200 {
			tr := &Trace{Root: socialTrace(rng, composePost, sim.Time(i)*sim.Time(time.Second)), Names: names}
			spans += len(tr.Records(nil))
			c.w.Add(tr)
			bytes += len(tr.enc)
		}
		perSpan := float64(bytes) / float64(spans)
		t.Logf("%s form: %d spans in %d B: %.2f B a span", c.form, spans, bytes, perSpan)
		if perSpan > float64(c.budget) {
			t.Fatalf("a compose-post span takes %.2f B in the %s form, over the budget of %d B", perSpan, c.form, c.budget)
		}
	}
}

// TestRetainEncodesLikeTheWarehouse: Retain of a Settled live trace no
// warehouse stored whole — here one a scan-form warehouse stored —
// writes the stream Add would store, byte for byte, and the copy no
// longer shares the tree; an unsettled one shares it.
func TestRetainEncodesLikeTheWarehouse(t *testing.T) {
	w, sw := NewWarehouse(time.Hour), NewScanWarehouse(time.Hour)
	for _, tr := range socialTraces(20) {
		tr.Settled = true
		sw.Add(tr)
		kept := tr.Retain()
		w.Add(tr)
		if kept.Root != nil || !bytes.Equal(kept.enc, tr.enc) {
			t.Fatalf("trace of %d spans: Retain kept root %v and %d stream bytes, the warehouse stored %d",
				len(tr.Records(nil)), kept.Root != nil, len(kept.enc), len(tr.enc))
		}
		tr.Settled = false
		tr.enc = nil
		if shared := tr.Retain(); shared.Root != tr.Root || shared.enc != nil {
			t.Fatal("Retain of an unsettled live trace did not share its tree")
		}
	}
}

// socialTraces returns n compose-post traces, live, on one name table.
func socialTraces(n int) []*Trace {
	rng := rand.New(rand.NewPCG(3, 28))
	names := newDecodeNames()
	trs := make([]*Trace, n)
	for i := range trs {
		trs[i] = &Trace{Root: socialTrace(rng, composePost, sim.Time(i)*sim.Time(time.Second)), Names: names}
	}
	return trs
}

// BenchmarkCompact measures storing on the cluster's completion path:
// encoding a settled compose-post trace into the warehouse's chunks,
// which recycle once eviction starts. It reports the cost and the
// stream's size a span.
func BenchmarkCompact(b *testing.B) {
	trs := socialTraces(64)
	spans := len(trs[0].Records(nil))
	w := NewWarehouse(time.Minute)
	tr := &Trace{Names: trs[0].Names}
	bytes := 0
	b.ResetTimer()
	for i := range b.N {
		// Every trace completes a second after the one before, in
		// rounds of the same 64 trees.
		root := trs[i%len(trs)].Root
		shift := sim.Time(i/len(trs)*len(trs)) * sim.Time(time.Second)
		walk(root, func(s *Span) { s.Arrival, s.Start, s.End = s.Arrival+shift, s.Start+shift, s.End+shift })
		tr.Root = root
		w.Add(tr)
		bytes += len(tr.enc)
		walk(root, func(s *Span) { s.Arrival, s.Start, s.End = s.Arrival-shift, s.Start-shift, s.End-shift })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
	b.ReportMetric(float64(bytes)/float64(b.N*spans), "B/span")
}

// BenchmarkRecords measures the read path of the SCG scan: decoding a
// stored compose-post trace into a warmed scratch. It reports the cost
// a span and the stream bytes a span it reads.
func BenchmarkRecords(b *testing.B) {
	trs := socialTraces(64)
	spans := len(trs[0].Records(nil))
	w := NewWarehouse(time.Hour)
	bytes := 0
	for _, tr := range trs {
		w.Add(tr)
		bytes += len(tr.enc)
	}
	v := w.all()
	var recs []Record
	b.ResetTimer()
	for i := range b.N {
		tr := v.At(i % len(trs))
		tr.Records(&recs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
	b.ReportMetric(float64(bytes)/float64(len(trs)*spans), "B/span")
}

// BenchmarkScan measures what the SCG scan reads of a stored trace:
// Scan of a compose-post trace a whole-form and a scan-form warehouse
// stored, into a warmed scratch. It reports the cost and the stream
// bytes a span.
func BenchmarkScan(b *testing.B) {
	for _, c := range []struct {
		form  string
		build func(time.Duration) *Warehouse
	}{{"whole", NewWarehouse}, {"scan", NewScanWarehouse}} {
		b.Run(c.form, func(b *testing.B) {
			trs := socialTraces(64)
			spans := len(trs[0].Records(nil))
			w := c.build(time.Hour)
			bytes := 0
			for _, tr := range trs {
				w.Add(tr)
				bytes += len(tr.enc)
			}
			v := w.all()
			var recs []ScanRecord
			b.ResetTimer()
			for i := range b.N {
				tr := v.At(i % len(trs))
				tr.Scan(&recs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
			b.ReportMetric(float64(bytes)/float64(len(trs)*spans), "B/span")
		})
	}
}
