// Package metrics provides the fine-grained runtime measurement machinery
// of the Sora reproduction: time series of sampled gauges (concurrency,
// CPU utilization), completion logs with goodput/badput accounting against
// arbitrary response-time thresholds, latency percentiles and histograms.
//
// Goodput follows the paper's simplified SLA model (section 2.3): a
// completion whose end-to-end response time is less than or equal to the
// threshold counts as goodput, everything else as badput; their sum is the
// classic throughput.
package metrics

import (
	"fmt"
	"math"
	"time"

	"sora/internal/sim"
	"sora/internal/stats"
)

// Point is one sampled gauge observation.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series of gauge samples, appended in
// nondecreasing time order (enforced). Prune drops the samples behind a
// retention cutoff without moving the survivors, which is what keeps the
// monitor's gauges flat and cheap on long runs while the online models
// still see their trailing window.
type Series struct {
	pts blockLog[Point]
}

// Add appends an observation. Out-of-order appends panic: the simulator's
// single-threaded kernel makes them impossible unless a component is
// misusing the series.
func (s *Series) Add(t sim.Time, v float64) {
	if last, ok := s.pts.last(); ok && t < last.T {
		panic(fmt.Sprintf("metrics: out-of-order sample at %v after %v", t, last.T))
	}
	s.pts.push(Point{T: t, V: v})
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.pts.n }

// Window returns the samples with T in [since, until).
func (s *Series) Window(since, until sim.Time) []Point {
	return s.pts.slice(s.span(since, until))
}

// Prune discards samples older than the cutoff.
func (s *Series) Prune(before sim.Time) {
	s.pts.drop(s.lowerBound(before))
}

// BucketMeans partitions [since, until) into fixed buckets and returns the
// mean sample value per bucket. Buckets with no samples carry NaN so the
// caller can distinguish "no data" from zero.
func (s *Series) BucketMeans(since, until sim.Time, bucket time.Duration) []float64 {
	n := bucketCount(since, until, bucket)
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	lo, hi := s.span(since, until)
	s.pts.each(lo, hi, func(run []Point) {
		for _, p := range run {
			idx := int((p.T - since) / bucket)
			if idx < 0 || idx >= n {
				continue
			}
			sums[idx] += p.V
			counts[idx]++
		}
	})
	out := make([]float64, n)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

func (s *Series) lowerBound(t sim.Time) int {
	return s.pts.search(func(p Point) bool { return p.T >= t })
}

// span returns the index range of the samples with T in [since, until);
// an inverted window is empty.
func (s *Series) span(since, until sim.Time) (lo, hi int) {
	lo = s.lowerBound(since)
	return lo, max(lo, s.lowerBound(until))
}

// Completion records one finished request.
type Completion struct {
	At sim.Time      // completion (departure) time
	RT time.Duration // end-to-end response time
	// Degraded marks a completion that returned a partial response (an
	// optional downstream call was dropped by the resilience layer).
	// Degraded completions count toward throughput but never toward
	// goodput, regardless of how fast the partial answer came back.
	Degraded bool
}

// CompletionLog is an append-only log of request completions, stored in
// completion order. Keeping raw completions (instead of pre-bucketed
// counters) lets the SCG model re-derive goodput against any propagated
// deadline after the fact — the crux of threshold-sensitive estimation.
type CompletionLog struct {
	completions blockLog[Completion]
}

// Add appends a completion; out-of-order appends panic (see Series.Add).
func (l *CompletionLog) Add(at sim.Time, rt time.Duration) {
	l.AddFlagged(at, rt, false)
}

// AddFlagged appends a completion carrying the degraded marker;
// out-of-order appends panic (see Series.Add).
//
//soravet:hotpath TestCompletionLogRecycledAllocFree every completed request lands here; once the log has recycled a block, AddFlagged plus retention Prune allocate nothing
func (l *CompletionLog) AddFlagged(at sim.Time, rt time.Duration, degraded bool) {
	if last, ok := l.completions.last(); ok && at < last.At {
		panic(fmt.Sprintf("metrics: out-of-order completion at %v after %v", at, last.At))
	}
	l.completions.push(Completion{At: at, RT: rt, Degraded: degraded})
}

// Len returns the number of recorded completions.
func (l *CompletionLog) Len() int { return l.completions.n }

// Prune discards completions older than the cutoff.
func (l *CompletionLog) Prune(before sim.Time) {
	l.completions.drop(l.lowerBound(before))
}

// Window returns completions with At in [since, until).
func (l *CompletionLog) Window(since, until sim.Time) []Completion {
	return l.completions.slice(l.span(since, until))
}

// Counts returns (goodput, badput) request counts in [since, until)
// against the given response-time threshold. Degraded completions are
// badput whatever their latency: a fast partial answer does not meet
// the SLA.
func (l *CompletionLog) Counts(since, until sim.Time, threshold time.Duration) (good, bad int) {
	lo, hi := l.span(since, until)
	l.completions.each(lo, hi, func(run []Completion) {
		for _, c := range run {
			if !c.Degraded && c.RT <= threshold {
				good++
			}
		}
	})
	return good, hi - lo - good
}

// CountsByOutcome splits the completions of [since, until) three ways
// against the threshold: good (full response within the SLA), degraded
// (partial response, any latency), violated (full response over the
// SLA). The chaos experiments report these fractions per fault window.
func (l *CompletionLog) CountsByOutcome(since, until sim.Time, threshold time.Duration) (good, degraded, violated int) {
	lo, hi := l.span(since, until)
	l.completions.each(lo, hi, func(run []Completion) {
		for _, c := range run {
			switch {
			case c.Degraded:
				degraded++
			case c.RT <= threshold:
				good++
			default:
				violated++
			}
		}
	})
	return good, degraded, violated
}

// GoodputRate returns the goodput in requests/second over [since, until)
// against the threshold.
func (l *CompletionLog) GoodputRate(since, until sim.Time, threshold time.Duration) float64 {
	if until <= since {
		return 0
	}
	good, _ := l.Counts(since, until, threshold)
	return float64(good) / (until - since).Seconds()
}

// ThroughputRate returns the total completion rate in requests/second
// over [since, until).
func (l *CompletionLog) ThroughputRate(since, until sim.Time) float64 {
	if until <= since {
		return 0
	}
	good, bad := l.Counts(since, until, time.Duration(math.MaxInt64))
	return float64(good+bad) / (until - since).Seconds()
}

// BucketRates partitions [since, until) into fixed buckets and returns the
// per-bucket goodput and throughput rates (requests/second) against the
// threshold.
func (l *CompletionLog) BucketRates(since, until sim.Time, bucket time.Duration, threshold time.Duration) (goodput, throughput []float64) {
	n := bucketCount(since, until, bucket)
	if n == 0 {
		return nil, nil
	}
	goodput = make([]float64, n)
	throughput = make([]float64, n)
	perBucket := bucket.Seconds()
	lo, hi := l.span(since, until)
	l.completions.each(lo, hi, func(run []Completion) {
		for _, c := range run {
			idx := int((c.At - since) / bucket)
			if idx < 0 || idx >= n {
				continue
			}
			throughput[idx]++
			if !c.Degraded && c.RT <= threshold {
				goodput[idx]++
			}
		}
	})
	for i := range goodput {
		goodput[i] /= perBucket
		throughput[i] /= perBucket
	}
	return goodput, throughput
}

// ResponseTimes returns the response times of completions in [since, until)
// as float64 milliseconds (the unit used throughout the paper's figures).
func (l *CompletionLog) ResponseTimes(since, until sim.Time) []float64 {
	lo, hi := l.span(since, until)
	out := make([]float64, 0, hi-lo)
	l.completions.each(lo, hi, func(run []Completion) {
		for _, c := range run {
			out = append(out, float64(c.RT)/float64(time.Millisecond))
		}
	})
	return out
}

// Percentile returns the p-th percentile response time over [since, until).
func (l *CompletionLog) Percentile(p float64, since, until sim.Time) (time.Duration, error) {
	rts := l.ResponseTimes(since, until)
	ms, err := stats.Percentile(rts, p)
	if err != nil {
		return 0, fmt.Errorf("metrics: percentile: %w", err)
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

func (l *CompletionLog) lowerBound(t sim.Time) int {
	return l.completions.search(func(c Completion) bool { return c.At >= t })
}

// span returns the index range of the completions with At in
// [since, until); an inverted window is empty.
func (l *CompletionLog) span(since, until sim.Time) (lo, hi int) {
	lo = l.lowerBound(since)
	return lo, max(lo, l.lowerBound(until))
}

// Histogram is a fixed-bin latency histogram, used to regenerate the
// paper's Figure 4 response-time distribution plots.
type Histogram struct {
	binWidth time.Duration
	bins     []int
	overflow int
	total    int
}

// NewHistogram returns a histogram with the given bin width covering
// [0, binWidth*numBins); larger values land in the overflow bin.
func NewHistogram(binWidth time.Duration, numBins int) (*Histogram, error) {
	if binWidth <= 0 || numBins <= 0 {
		return nil, fmt.Errorf("metrics: invalid histogram shape: width=%v bins=%d", binWidth, numBins)
	}
	return &Histogram{binWidth: binWidth, bins: make([]int, numBins)}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v time.Duration) {
	h.total++
	if v < 0 {
		v = 0
	}
	idx := int(v / h.binWidth)
	if idx >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[idx]++
}

// Bins returns a copy of the bin counts.
func (h *Histogram) Bins() []int {
	out := make([]int, len(h.bins))
	copy(out, h.bins)
	return out
}

// Overflow returns the count of observations beyond the last bin.
func (h *Histogram) Overflow() int { return h.overflow }

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// FractionBelow returns the fraction of observations at or below the
// threshold, counting each bin at its upper edge (conservative).
func (h *Histogram) FractionBelow(threshold time.Duration) float64 {
	if h.total == 0 {
		return 0
	}
	count := 0
	for i, c := range h.bins {
		upper := time.Duration(i+1) * h.binWidth
		if upper <= threshold {
			count += c
		}
	}
	return float64(count) / float64(h.total)
}

// ConcurrencyGoodputPairs aligns a concurrency gauge series with a
// completion log over [since, until) at the given sampling interval,
// producing the <Q_n, GP_n> pairs of the SCG model's metrics-collection
// phase (section 3.2). Buckets with no concurrency samples are skipped.
func ConcurrencyGoodputPairs(conc *Series, log *CompletionLog, since, until sim.Time, interval time.Duration, threshold time.Duration) (qs, gps []float64) {
	qMeans := conc.BucketMeans(since, until, interval)
	goodput, _ := log.BucketRates(since, until, interval, threshold)
	n := len(qMeans)
	if len(goodput) < n {
		n = len(goodput)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(qMeans[i]) {
			continue
		}
		qs = append(qs, qMeans[i])
		gps = append(gps, goodput[i])
	}
	return qs, gps
}

// ConcurrencyThroughputPairs is the latency-agnostic variant used by the
// ConScale SCT baseline: identical alignment but the y value is raw
// throughput.
func ConcurrencyThroughputPairs(conc *Series, log *CompletionLog, since, until sim.Time, interval time.Duration) (qs, tps []float64) {
	qMeans := conc.BucketMeans(since, until, interval)
	_, throughput := log.BucketRates(since, until, interval, time.Duration(math.MaxInt64))
	n := len(qMeans)
	if len(throughput) < n {
		n = len(throughput)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(qMeans[i]) {
			continue
		}
		qs = append(qs, qMeans[i])
		tps = append(tps, throughput[i])
	}
	return qs, tps
}

func bucketCount(since, until sim.Time, bucket time.Duration) int {
	if until <= since || bucket <= 0 {
		return 0
	}
	return int((until - since + bucket - 1) / bucket)
}
