package metrics

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sora/internal/sim"
)

func ms(n int) sim.Time { return time.Duration(n) * time.Millisecond }

func TestSeriesWindowAndLast(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(ms(i*100), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	win := s.Window(ms(200), ms(500))
	if len(win) != 3 {
		t.Fatalf("window has %d points, want 3", len(win))
	}
	if win[0].V != 2 || win[2].V != 4 {
		t.Errorf("window = %v", win)
	}
	last, ok := s.pts.last()
	if !ok || last.V != 9 {
		t.Errorf("Last = %v ok=%v", last, ok)
	}
	var empty Series
	if _, ok := empty.pts.last(); ok {
		t.Error("empty series Last ok=true")
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	var s Series
	s.Add(ms(100), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-order sample")
		}
	}()
	s.Add(ms(50), 2)
}

func TestSeriesPrune(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(ms(i*100), float64(i))
	}
	s.Prune(ms(500))
	if s.Len() != 5 {
		t.Fatalf("Len after prune = %d, want 5", s.Len())
	}
	if first := s.Window(0, ms(10000))[0]; first.T != ms(500) {
		t.Errorf("first point at %v, want 500ms", first.T)
	}
}

func TestSeriesBucketMeans(t *testing.T) {
	var s Series
	// Bucket 0: values 1,3 (mean 2); bucket 1: empty; bucket 2: value 5.
	s.Add(ms(10), 1)
	s.Add(ms(90), 3)
	s.Add(ms(250), 5)
	got := s.BucketMeans(0, ms(300), 100*time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("got %d buckets, want 3", len(got))
	}
	if got[0] != 2 {
		t.Errorf("bucket 0 mean = %g, want 2", got[0])
	}
	if !math.IsNaN(got[1]) {
		t.Errorf("bucket 1 = %g, want NaN", got[1])
	}
	if got[2] != 5 {
		t.Errorf("bucket 2 mean = %g, want 5", got[2])
	}
}

func TestCompletionLogCountsAndRates(t *testing.T) {
	var l CompletionLog
	l.Add(ms(100), 50*time.Millisecond)
	l.Add(ms(200), 150*time.Millisecond)
	l.Add(ms(300), 250*time.Millisecond)
	l.Add(ms(400), 350*time.Millisecond)
	good, bad := l.Counts(0, ms(1000), 200*time.Millisecond)
	if good != 2 || bad != 2 {
		t.Errorf("Counts = (%d,%d), want (2,2)", good, bad)
	}
	// 2 good over 1 second.
	if rate := l.GoodputRate(0, ms(1000), 200*time.Millisecond); rate != 2 {
		t.Errorf("GoodputRate = %g, want 2", rate)
	}
	if rate := l.ThroughputRate(0, ms(1000)); rate != 4 {
		t.Errorf("ThroughputRate = %g, want 4", rate)
	}
	if rate := l.GoodputRate(ms(100), ms(100), time.Second); rate != 0 {
		t.Errorf("empty window rate = %g, want 0", rate)
	}
}

func TestCompletionLogThresholdBoundaryInclusive(t *testing.T) {
	var l CompletionLog
	l.Add(ms(10), 100*time.Millisecond)
	good, bad := l.Counts(0, ms(100), 100*time.Millisecond)
	if good != 1 || bad != 0 {
		t.Errorf("RT == threshold must count as goodput: (%d,%d)", good, bad)
	}
}

func TestCompletionLogBucketRates(t *testing.T) {
	var l CompletionLog
	// Bucket 0 (0-100ms): 2 completions, 1 good.
	l.Add(ms(10), 50*time.Millisecond)
	l.Add(ms(20), 500*time.Millisecond)
	// Bucket 1: 1 completion, 1 good.
	l.Add(ms(150), 10*time.Millisecond)
	goodput, throughput := l.BucketRates(0, ms(200), 100*time.Millisecond, 100*time.Millisecond)
	if len(goodput) != 2 {
		t.Fatalf("%d buckets, want 2", len(goodput))
	}
	// Rates are per second: 1 good per 0.1s = 10/s.
	if goodput[0] != 10 || throughput[0] != 20 {
		t.Errorf("bucket0 = (%g,%g), want (10,20)", goodput[0], throughput[0])
	}
	if goodput[1] != 10 || throughput[1] != 10 {
		t.Errorf("bucket1 = (%g,%g), want (10,10)", goodput[1], throughput[1])
	}
}

func TestCompletionLogPercentile(t *testing.T) {
	var l CompletionLog
	for i := 1; i <= 100; i++ {
		l.Add(ms(i), time.Duration(i)*time.Millisecond)
	}
	p99, err := l.Percentile(99, 0, ms(1000))
	if err != nil {
		t.Fatal(err)
	}
	if p99 < 98*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v, want ~99ms", p99)
	}
	if _, err := l.Percentile(99, ms(5000), ms(6000)); err == nil {
		t.Error("expected error for empty window")
	}
}

func TestCompletionLogPrune(t *testing.T) {
	var l CompletionLog
	for i := 0; i < 10; i++ {
		l.Add(ms(i*100), time.Millisecond)
	}
	l.Prune(ms(700))
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

func TestCompletionLogOutOfOrderPanics(t *testing.T) {
	var l CompletionLog
	l.Add(ms(100), time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	l.Add(ms(99), time.Millisecond)
}

// TestCompletionLogRoundTrip checks that the packed entry loses
// nothing: Window returns exactly the (At, RT, Degraded) appended, at
// both ends of the response-time range and either way flagged.
func TestCompletionLogRoundTrip(t *testing.T) {
	var l CompletionLog
	var want []Completion
	for i, rt := range []time.Duration{0, 1, 1 << 62, math.MaxInt64} {
		for _, degraded := range []bool{true, false} {
			at := ms(i)
			l.AddFlagged(at, rt, degraded)
			want = append(want, Completion{At: at, RT: rt, Degraded: degraded})
		}
	}
	if got := l.Window(0, ms(len(want))); !reflect.DeepEqual(got, want) {
		t.Fatalf("Window = %+v\nwant %+v", got, want)
	}
}

func TestCompletionLogNegativeRTPanics(t *testing.T) {
	var l CompletionLog
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	l.AddFlagged(ms(1), -1, false)
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(10*time.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(5 * time.Millisecond)   // bin 0
	h.Observe(15 * time.Millisecond)  // bin 1
	h.Observe(15 * time.Millisecond)  // bin 1
	h.Observe(99 * time.Millisecond)  // bin 9
	h.Observe(500 * time.Millisecond) // overflow
	h.Observe(-time.Millisecond)      // clamped to bin 0
	bins := h.Bins()
	if bins[0] != 2 || bins[1] != 2 || bins[9] != 1 {
		t.Errorf("bins = %v", bins)
	}
	if h.Overflow() != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow())
	}
	if h.Total() != 6 {
		t.Errorf("total = %d, want 6", h.Total())
	}
	if got := h.FractionBelow(20 * time.Millisecond); got != 4.0/6 {
		t.Errorf("FractionBelow(20ms) = %g, want %g", got, 4.0/6)
	}
	if h.binWidth != 10*time.Millisecond {
		t.Errorf("BinWidth = %v", h.binWidth)
	}
}

func TestHistogramInvalidShape(t *testing.T) {
	if _, err := NewHistogram(0, 5); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := NewHistogram(time.Millisecond, 0); err == nil {
		t.Error("expected error for zero bins")
	}
}

func TestConcurrencyGoodputPairs(t *testing.T) {
	var conc Series
	var log CompletionLog
	// Bucket 0: Q=5, 2 good completions; bucket 1: no samples (skipped);
	// bucket 2: Q=10, 1 good 1 bad.
	conc.Add(ms(50), 5)
	conc.Add(ms(250), 10)
	log.Add(ms(10), 50*time.Millisecond)
	log.Add(ms(20), 60*time.Millisecond)
	log.Add(ms(260), 70*time.Millisecond)
	log.Add(ms(270), 900*time.Millisecond)
	qs, gps := ConcurrencyGoodputPairs(&conc, &log, 0, ms(300), 100*time.Millisecond, 100*time.Millisecond)
	if len(qs) != 2 {
		t.Fatalf("%d pairs, want 2 (NaN bucket skipped)", len(qs))
	}
	if qs[0] != 5 || gps[0] != 20 {
		t.Errorf("pair0 = (%g,%g), want (5,20)", qs[0], gps[0])
	}
	if qs[1] != 10 || gps[1] != 10 {
		t.Errorf("pair1 = (%g,%g), want (10,10)", qs[1], gps[1])
	}
}

func TestConcurrencyThroughputPairsIgnoresLatency(t *testing.T) {
	var conc Series
	var log CompletionLog
	conc.Add(ms(50), 4)
	log.Add(ms(10), time.Hour) // terrible RT still counts for throughput
	log.Add(ms(20), time.Nanosecond)
	qs, tps := ConcurrencyThroughputPairs(&conc, &log, 0, ms(100), 100*time.Millisecond)
	if len(qs) != 1 || tps[0] != 20 {
		t.Errorf("pairs = %v/%v, want one pair with tp 20", qs, tps)
	}
}

// Property: goodput <= throughput for any threshold and window.
func TestQuickGoodputNeverExceedsThroughput(t *testing.T) {
	f := func(rts []uint16, thresholdRaw uint16) bool {
		var l CompletionLog
		for i, rt := range rts {
			l.Add(ms(i*10), time.Duration(rt)*time.Millisecond)
		}
		threshold := time.Duration(thresholdRaw) * time.Millisecond
		until := ms(len(rts)*10 + 10)
		return l.GoodputRate(0, until, threshold) <= l.ThroughputRate(0, until)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: goodput is monotonically nondecreasing in the threshold.
func TestQuickGoodputMonotoneInThreshold(t *testing.T) {
	f := func(rts []uint16) bool {
		var l CompletionLog
		for i, rt := range rts {
			l.Add(ms(i*10), time.Duration(rt)*time.Millisecond)
		}
		until := ms(len(rts)*10 + 10)
		prev := -1.0
		for _, th := range []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second, time.Hour} {
			g := l.GoodputRate(0, until, th)
			if g < prev {
				return false
			}
			prev = g
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: histogram total equals observations and bins+overflow==total.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(vals []uint16) bool {
		h, err := NewHistogram(5*time.Millisecond, 20)
		if err != nil {
			return false
		}
		for _, v := range vals {
			h.Observe(time.Duration(v) * time.Millisecond)
		}
		sum := h.Overflow()
		for _, c := range h.Bins() {
			sum += c
		}
		return sum == len(vals) && h.Total() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBucketRates(b *testing.B) {
	var l CompletionLog
	for i := 0; i < 100_000; i++ {
		l.Add(ms(i), time.Duration(i%400)*time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.BucketRates(0, ms(100_000), 100*time.Millisecond, 200*time.Millisecond)
	}
}

// TestHistogramBoundaries pins the half-open bin convention
// [i*w, (i+1)*w): an observation exactly on a bin edge lands in the
// higher bin, and one exactly on the last edge counts as overflow.
func TestHistogramBoundaries(t *testing.T) {
	w := 10 * time.Millisecond
	h, err := NewHistogram(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0)          // first edge -> bin 0
	h.Observe(w - 1)      // just under the first edge -> bin 0
	h.Observe(w)          // exactly one bin width -> bin 1
	h.Observe(10*w - 1)   // last representable value -> bin 9
	h.Observe(10 * w)     // exactly the upper bound -> overflow
	h.Observe(10*w + 1)   // beyond the last bin -> overflow
	h.Observe(-time.Hour) // negative clamps to bin 0
	bins := h.Bins()
	if bins[0] != 3 {
		t.Errorf("bin 0 = %d, want 3 (edge, sub-edge, clamped negative)", bins[0])
	}
	if bins[1] != 1 {
		t.Errorf("bin 1 = %d, want 1 (exact bin-width observation)", bins[1])
	}
	if bins[9] != 1 {
		t.Errorf("bin 9 = %d, want 1", bins[9])
	}
	if h.Overflow() != 2 {
		t.Errorf("Overflow = %d, want 2 (exact upper bound plus beyond)", h.Overflow())
	}
	// Total must include overflow: every observation is counted somewhere.
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
	sum := h.Overflow()
	for _, c := range bins {
		sum += c
	}
	if sum != h.Total() {
		t.Errorf("bins+overflow = %d, Total = %d; conservation violated", sum, h.Total())
	}
}
