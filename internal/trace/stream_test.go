package trace

import (
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
func socialTrace(rng *rand.Rand, c socialCall, arrival sim.Time, depth int32) *Span {
	work := func() time.Duration { return time.Duration(50_000 + rng.IntN(950_000)) }
	s := &Span{Service: "svc", Depth: depth, Arrival: arrival, Start: arrival}
	s.SetIDs(c.svc, 2*c.svc+int32(rng.IntN(2)))
	if rng.IntN(2) == 0 {
		s.Start += sim.Time(rng.IntN(200_000))
	}
	req, res := work(), work()
	now := s.Start + req
	for _, k := range c.kids {
		child := socialTrace(rng, k, now+sim.Time(20_000+rng.IntN(80_000)), depth+1)
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
// may take in the retained stream. A span's Record is 80 B; the stream
// spends about 22.1 on socialTrace's spans.
const socialStreamBudget = 24

// TestSocialStreamSize pins the retained size of settled traces:
// compacting compose-post traces with millisecond-scale times must stay
// within socialStreamBudget bytes a span, so that a format change that
// bloats retained history fails here before it shows in the
// benchmark's peak heap.
func TestSocialStreamSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 28))
	names := newDecodeNames()
	var scratch, chunk []byte
	bytes, spans := 0, 0
	for i := range 200 {
		tr := &Trace{Root: socialTrace(rng, composePost, sim.Time(i)*sim.Time(time.Second), 0), Names: names}
		spans += tr.SpanCount()
		tr.Compact(&scratch, &chunk)
		bytes += len(tr.enc)
	}
	perSpan := float64(bytes) / float64(spans)
	t.Logf("%d spans in %d B: %.2f B a span", spans, bytes, perSpan)
	if perSpan > socialStreamBudget {
		t.Fatalf("a compose-post span takes %.2f B in the stream, over the budget of %d B", perSpan, socialStreamBudget)
	}
}

// socialTraces returns n compose-post traces, live, on one name table.
func socialTraces(n int) []*Trace {
	rng := rand.New(rand.NewPCG(3, 28))
	names := newDecodeNames()
	trs := make([]*Trace, n)
	for i := range trs {
		trs[i] = &Trace{Root: socialTrace(rng, composePost, sim.Time(i)*sim.Time(time.Second), 0), Names: names}
	}
	return trs
}

// BenchmarkCompact measures compaction on the cluster's completion
// path: encoding a settled compose-post trace and appending its stream
// to a shared chunk. It reports the cost and the stream's size a span.
func BenchmarkCompact(b *testing.B) {
	trs := socialTraces(64)
	roots := make([]*Span, len(trs))
	for i, tr := range trs {
		roots[i] = tr.Root
	}
	spans := trs[0].SpanCount()
	var scratch, chunk []byte
	bytes := 0
	b.ResetTimer()
	for i := range b.N {
		tr := trs[i%len(trs)]
		tr.Root = roots[i%len(trs)]
		tr.Compact(&scratch, &chunk)
		bytes += len(tr.enc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
	b.ReportMetric(float64(bytes)/float64(b.N*spans), "B/span")
}

// BenchmarkRecords measures the read path of the SCG scan: decoding a
// compacted compose-post trace into a warmed scratch. It reports the
// cost a span and the stream bytes a span it reads.
func BenchmarkRecords(b *testing.B) {
	trs := socialTraces(64)
	spans := trs[0].SpanCount()
	var scratch, chunk []byte
	bytes := 0
	for _, tr := range trs {
		tr.Compact(&scratch, &chunk)
		bytes += len(tr.enc)
	}
	var recs []Record
	b.ResetTimer()
	for i := range b.N {
		trs[i%len(trs)].Records(&recs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
	b.ReportMetric(float64(bytes)/float64(len(trs)*spans), "B/span")
}
