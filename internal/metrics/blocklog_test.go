package metrics

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/stats"
)

// refLog is the plain-slice CompletionLog the block log replaced, kept
// as the oracle for the equivalence test: one slice, appended to, with
// readers over the sub-slice between two binary searches.
type refLog struct{ cs []Completion }

func (r *refLog) add(at sim.Time, rt time.Duration, degraded bool) {
	r.cs = append(r.cs, Completion{At: at, RT: rt, Degraded: degraded})
}

func (r *refLog) lowerBound(t sim.Time) int {
	return sort.Search(len(r.cs), func(i int) bool { return r.cs[i].At >= t })
}

func (r *refLog) prune(before sim.Time) { r.cs = r.cs[r.lowerBound(before):] }

// win is the [since, until) sub-slice, empty when the window is inverted.
func (r *refLog) win(since, until sim.Time) []Completion {
	lo, hi := r.lowerBound(since), r.lowerBound(until)
	if lo >= hi {
		return nil
	}
	return r.cs[lo:hi]
}

func (r *refLog) counts(since, until sim.Time, th time.Duration) (good, bad int) {
	for _, c := range r.win(since, until) {
		if !c.Degraded && c.RT <= th {
			good++
		} else {
			bad++
		}
	}
	return good, bad
}

func (r *refLog) countsByOutcome(since, until sim.Time, th time.Duration) (good, degraded, violated int) {
	for _, c := range r.win(since, until) {
		switch {
		case c.Degraded:
			degraded++
		case c.RT <= th:
			good++
		default:
			violated++
		}
	}
	return good, degraded, violated
}

// refBucketCount is bucketCount in exact integer arithmetic.
func refBucketCount(since, until sim.Time, bucket time.Duration) int {
	if until <= since || bucket <= 0 {
		return 0
	}
	w := new(big.Int).Sub(big.NewInt(int64(until)), big.NewInt(int64(since)))
	w.Add(w, big.NewInt(int64(bucket-1)))
	return int(w.Quo(w, big.NewInt(int64(bucket))).Int64())
}

// refBucketOf is bucketOf in exact integer arithmetic.
func refBucketOf(t, since sim.Time, bucket time.Duration) int {
	d := new(big.Int).Sub(big.NewInt(int64(t)), big.NewInt(int64(since)))
	return int(d.Quo(d, big.NewInt(int64(bucket))).Int64())
}

func (r *refLog) bucketRates(since, until sim.Time, bucket, th time.Duration) (goodput, throughput []float64) {
	n := refBucketCount(since, until, bucket)
	if n == 0 {
		return nil, nil
	}
	goodput, throughput = make([]float64, n), make([]float64, n)
	for _, c := range r.win(since, until) {
		idx := refBucketOf(c.At, since, bucket)
		throughput[idx]++
		if !c.Degraded && c.RT <= th {
			goodput[idx]++
		}
	}
	for i := range goodput {
		goodput[i] /= bucket.Seconds()
		throughput[i] /= bucket.Seconds()
	}
	return goodput, throughput
}

func (r *refLog) responseTimes(since, until sim.Time) []float64 {
	out := []float64{}
	for _, c := range r.win(since, until) {
		out = append(out, float64(c.RT)/float64(time.Millisecond))
	}
	return out
}

// refSeries is the plain-slice Series oracle.
type refSeries struct{ pts []Point }

func (r *refSeries) lowerBound(t sim.Time) int {
	return sort.Search(len(r.pts), func(i int) bool { return r.pts[i].T >= t })
}

func (r *refSeries) prune(before sim.Time) { r.pts = r.pts[r.lowerBound(before):] }

func (r *refSeries) win(since, until sim.Time) []Point {
	lo, hi := r.lowerBound(since), r.lowerBound(until)
	if lo >= hi {
		return nil
	}
	return r.pts[lo:hi]
}

func (r *refSeries) bucketMeans(since, until sim.Time, bucket time.Duration) []float64 {
	n := refBucketCount(since, until, bucket)
	if n == 0 {
		return nil
	}
	sums, counts := make([]float64, n), make([]int, n)
	for _, p := range r.win(since, until) {
		idx := refBucketOf(p.T, since, bucket)
		sums[idx] += p.V
		counts[idx]++
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// checkBlocks asserts the block log's layout invariants.
func checkBlocks[T any](t *testing.T, l *blockLog[T]) {
	t.Helper()
	if l.head < 0 || l.head >= blockSize || l.n < 0 || l.head+l.n > len(l.blocks)*blockSize {
		t.Fatalf("layout: head=%d n=%d blocks=%d", l.head, l.n, len(l.blocks))
	}
	if l.n == 0 && l.head != 0 {
		t.Fatalf("empty log keeps head=%d", l.head)
	}
	if k := len(l.blocks); k > 0 && l.tail != l.blocks[k-1] || k == 0 && l.tail != nil {
		t.Fatalf("cached tail is not the last of %d blocks", k)
	}
	if len(l.free) > len(l.blocks) {
		t.Fatalf("free list %d blocks exceeds the %d live", len(l.free), len(l.blocks))
	}
}

// checkCoded asserts the coded log's layout invariants.
func checkCoded(t *testing.T, l *codedLog) {
	t.Helper()
	if l.n == 0 {
		if len(l.blocks) != 0 || l.head != (codedPos{}) || l.tail != nil {
			t.Fatalf("empty log keeps %d blocks, head %+v, tail %p", len(l.blocks), l.head, l.tail)
		}
		return
	}
	entries := -l.head.e
	for i, b := range l.blocks {
		if b.n <= 0 || b.used > codedBlockBytes || i > 0 && (b.start != l.blocks[i-1].start+int(l.blocks[i-1].n) || b.first < l.blocks[i-1].first) {
			t.Fatalf("block %d of %d: n=%d used=%d start=%d first=%v", i, len(l.blocks), b.n, b.used, b.start, b.first)
		}
		entries += int(b.n)
	}
	if l.head.b != 0 || l.head.e < 0 || l.head.e >= int(l.blocks[0].n) || entries != l.n {
		t.Fatalf("layout: head %+v, n=%d, blocks hold %d live", l.head, l.n, entries)
	}
	if len(l.free) > len(l.blocks) {
		t.Fatalf("free list %d blocks exceeds the %d live", len(l.free), len(l.blocks))
	}
	if l.tail != &l.blocks[len(l.blocks)-1] {
		t.Fatalf("cached tail is not the last of %d blocks", len(l.blocks))
	}
}

// checkHead asserts that the coded log's head is the place decoding
// block 0 from its start reaches after head.e entries. Only Prune and
// the first append to an empty log move the head.
func checkHead(t *testing.T, l *codedLog) {
	t.Helper()
	if l.n == 0 {
		return
	}
	want := codedPos{at: l.blocks[0].first}
	for ; want.e < l.head.e; want.e++ {
		h := l.blocks[0].buf[want.p]
		want.at += sim.Time(binary.LittleEndian.Uint64(l.blocks[0].buf[want.p+1:]) & codeValue[h&codeMask])
		want.p += int(entryBytes[h])
	}
	if l.head != want {
		t.Fatalf("head %+v, decoding block 0 reaches %+v", l.head, want)
	}
}

// sameFloats compares exactly, NaN equal to NaN.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestBlockLogMatchesSliceReference drives random append/prune/query
// sequences through CompletionLog and Series and through the plain-slice
// oracles, and requires every reader to agree after every step. Prunes
// are rare enough that the logs grow across several blocks, and one in
// three cuts past the newest record, draining the log before it refills. Query windows reach past both ends and are inverted about
// half the time.
func TestBlockLogMatchesSliceReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x10c))
		var (
			log    CompletionLog
			series Series
			rl     refLog
			rs     refSeries
			now    sim.Time
			drains int
			spread int // most blocks one log held live
		)
		randTime := func() sim.Time {
			lo := now - ms(3000)
			if len(rl.cs) > 0 {
				lo = rl.cs[0].At - ms(10)
			}
			return lo + sim.Time(rng.Int64N(int64(now-lo+ms(20))+1))
		}
		for step := 0; step < 40_000; step++ {
			switch op := rng.IntN(1500); {
			case op < 1:
				cut := randTime()
				if rng.IntN(3) == 0 {
					cut = now + ms(1)
				}
				log.Prune(cut)
				series.Prune(cut)
				rl.prune(cut)
				rs.prune(cut)
				checkHead(t, &log.completions)
				if len(rl.cs) == 0 {
					drains++
				}
			case op < 45:
				since, until := randTime(), randTime()
				th := time.Duration(rng.IntN(400)) * time.Millisecond
				bucket := time.Duration(1+rng.IntN(200)) * time.Millisecond
				if got, want := log.Window(since, until), rl.win(since, until); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("seed %d step %d: Window(%v, %v) has %d completions, want %d", seed, step, since, until, len(got), len(want))
				}
				g, b := log.Counts(since, until, th)
				wg, wb := rl.counts(since, until, th)
				if g != wg || b != wb {
					t.Fatalf("seed %d step %d: Counts = (%d,%d), want (%d,%d)", seed, step, g, b, wg, wb)
				}
				g, d, v := log.CountsByOutcome(since, until, th)
				wg, wd, wv := rl.countsByOutcome(since, until, th)
				if g != wg || d != wd || v != wv {
					t.Fatalf("seed %d step %d: CountsByOutcome = (%d,%d,%d), want (%d,%d,%d)", seed, step, g, d, v, wg, wd, wv)
				}
				gp, tp := log.BucketRates(since, until, bucket, th)
				wgp, wtp := rl.bucketRates(since, until, bucket, th)
				if !sameFloats(gp, wgp) || !sameFloats(tp, wtp) {
					t.Fatalf("seed %d step %d: BucketRates(%v, %v, %v) differ from the reference", seed, step, since, until, bucket)
				}
				rts, wrts := log.ResponseTimes(since, until), rl.responseTimes(since, until)
				if !sameFloats(rts, wrts) {
					t.Fatalf("seed %d step %d: ResponseTimes has %d values, want %d", seed, step, len(rts), len(wrts))
				}
				p := rng.Float64() * 100
				pv, err := log.Percentile(p, since, until)
				wms, werr := stats.Percentile(wrts, p)
				if (err != nil) != (werr != nil) || err == nil && pv != time.Duration(wms*float64(time.Millisecond)) {
					t.Fatalf("seed %d step %d: Percentile(%g) = %v, %v; want %v ms, %v", seed, step, p, pv, err, wms, werr)
				}
				if got, want := series.Window(since, until), rs.win(since, until); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("seed %d step %d: Series.Window has %d points, want %d", seed, step, len(got), len(want))
				}
				if got, want := series.BucketMeans(since, until, bucket), rs.bucketMeans(since, until, bucket); !sameFloats(got, want) {
					t.Fatalf("seed %d step %d: BucketMeans(%v, %v, %v) differ from the reference", seed, step, since, until, bucket)
				}
			default:
				now += ms(rng.IntN(3))
				rt := time.Duration(rng.IntN(500)) * time.Millisecond
				degraded := rng.IntN(10) == 0
				log.AddFlagged(now, rt, degraded)
				rl.add(now, rt, degraded)
				v := rng.Float64()
				series.Add(now, v)
				rs.pts = append(rs.pts, Point{T: now, V: v})
			}
			if log.Len() != len(rl.cs) || series.Len() != len(rs.pts) {
				t.Fatalf("seed %d step %d: Len = %d/%d, want %d/%d", seed, step, log.Len(), series.Len(), len(rl.cs), len(rs.pts))
			}
			last, ok := series.pts.last()
			if n := len(rs.pts); ok != (n > 0) || ok && last != rs.pts[n-1] {
				t.Fatalf("seed %d step %d: Last = %+v, %v", seed, step, last, ok)
			}
			checkCoded(t, &log.completions)
			checkBlocks(t, &series.pts)
			spread = max(spread, len(log.completions.blocks))
		}
		if drains == 0 || spread < 3 {
			t.Fatalf("seed %d: %d drains and at most %d live blocks; the run must drain the log and span several blocks", seed, drains, spread)
		}
	}
}

// TestSeriesBoundMemory streams ten million records through a Series
// pruned after every sample (the monitor's pattern) and a CompletionLog
// pruned every 4096 records (the cluster's housekeeping pattern), each
// with a 10,000-record retention. The live blocks plus the free list must
// stay a small multiple of the retention, not of the record count, and
// the retained window must be the newest records, intact.
func TestSeriesBoundMemory(t *testing.T) {
	const (
		retention  = 10_000
		n          = 10_000_000
		pruneEvery = 4096
	)
	maxBlocks := 2 * ((retention+pruneEvery)/blockSize + 2)
	var s Series
	var l CompletionLog
	peak := 0
	for i := 0; i < n; i++ {
		s.Add(ms(i), float64(i))
		s.Prune(ms(i - retention + 1))
		l.Add(ms(i), time.Millisecond)
		if i%pruneEvery == 0 {
			l.Prune(ms(i - retention + 1))
		}
		if i%blockSize == 0 {
			peak = max(peak, len(s.pts.blocks)+len(s.pts.free), len(l.completions.blocks)+len(l.completions.free))
		}
	}
	if peak > maxBlocks {
		t.Fatalf("blocks plus free list peaked at %d, want <= %d (memory not bounded by retention)", peak, maxBlocks)
	}
	if s.Len() != retention {
		t.Fatalf("Series.Len = %d, want %d", s.Len(), retention)
	}
	if w := s.Window(0, ms(n)); w[0].T != ms(n-retention) || w[len(w)-1].V != float64(n-1) {
		t.Fatalf("retained window spans %v..%v, want %v..%v", w[0].T, w[len(w)-1].T, ms(n-retention), ms(n-1))
	}
	if l.Len() > retention+pruneEvery {
		t.Fatalf("CompletionLog.Len = %d, want <= %d", l.Len(), retention+pruneEvery)
	}
}

// TestCompletionLogRecycledAllocFree pins the retention logs' steady
// state: once a log has retired a block and taken it back from its free
// list, appends plus retention prunes allocate nothing. Each measured
// run crosses four block boundaries of both logs, so a single refill
// allocation shows.
func TestCompletionLogRecycledAllocFree(t *testing.T) {
	const retention = 3000
	// A 1 ms gap and a 1 ms response time code in 3 B each, so a
	// completion entry is 7 B; a block spans the larger of the two
	// logs' block lengths.
	span := max(blockSize, codedBlockBytes/7)
	var l CompletionLog
	var s Series
	i := 0
	step := func() {
		l.AddFlagged(ms(i), time.Millisecond, i%7 == 0)
		l.Prune(ms(i - retention))
		s.Add(ms(i), 1)
		s.Prune(ms(i - retention))
		i++
	}
	// By the end of the warm-up the first two blocks have been retired
	// and one of them has come back as the tail.
	for i < retention+2*span {
		step()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for j := 0; j < 4*span; j++ {
			step()
		}
	})
	if allocs != 0 {
		t.Fatalf("AddFlagged+Prune on a recycling log allocated %v times per %d records, want 0", allocs, 4*span)
	}
}

// TestCompletionLogReadAllocFree pins the read side: Counts and
// CountsByOutcome decode a window spanning several blocks into a buffer
// on their own stack, so they allocate nothing.
func TestCompletionLogReadAllocFree(t *testing.T) {
	var l CompletionLog
	for i := range 5000 {
		l.AddFlagged(ms(i), time.Duration(i%97)*time.Millisecond, i%50 == 0)
	}
	if len(l.completions.blocks) < 4 {
		t.Fatalf("log spans %d blocks, want at least 4", len(l.completions.blocks))
	}
	since, until := ms(100), ms(4900)
	if g, b := l.Counts(since, until, time.Hour); g+b != 4800 {
		t.Fatalf("window holds %d completions, want 4800", g+b)
	}
	var good, degraded int
	allocs := testing.AllocsPerRun(10, func() {
		good, _ = l.Counts(since, until, 50*time.Millisecond)
		_, degraded, _ = l.CountsByOutcome(since, until, 50*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Counts+CountsByOutcome over %d blocks allocated %v times, want 0", len(l.completions.blocks), allocs)
	}
	if good == 0 || degraded != 96 {
		t.Fatalf("Counts found %d good and %d degraded, want some good and 96 degraded", good, degraded)
	}
}

// TestCompletionLogPercentileAllocatesOnce: Percentile copies its
// window once, into the slice ResponseTimes returns, and sorts that in
// place; its value is stats.Percentile's over the same window, bit for
// bit, at the interpolated and the exact ranks.
func TestCompletionLogPercentileAllocatesOnce(t *testing.T) {
	var l CompletionLog
	for i := range 5000 {
		l.AddFlagged(ms(i), time.Duration(i*7919%997)*time.Microsecond, i%50 == 0)
	}
	since, until := ms(100), ms(4900)
	for _, p := range []float64{0, 33.3, 50, 99, 99.9, 100} {
		got, err := l.Percentile(p, since, until)
		want, werr := stats.Percentile(l.ResponseTimes(since, until), p)
		if err != nil || werr != nil || got != time.Duration(want*float64(time.Millisecond)) {
			t.Errorf("Percentile(%g) = %v, %v; stats.Percentile gives %v ms, %v", p, got, err, want, werr)
		}
	}
	allocs := testing.AllocsPerRun(10, func() { _, _ = l.Percentile(99, since, until) })
	if allocs != 1 {
		t.Errorf("Percentile over 4800 completions allocated %v times, want 1", allocs)
	}
}

// TestCompletionLogBytesPerEntry pins the stored size of a steady-state
// completion log, as TestSocialStreamSize pins the trace stream's: gaps
// and response times of 0.1–10 ms with one completion in 50 degraded
// must code in at most 8 B an entry, half the 16 B of the two-word
// entries the coded stream replaced.
func TestCompletionLogBytesPerEntry(t *testing.T) {
	const entries = 100_000
	rng := rand.New(rand.NewPCG(7, 30))
	between := func() time.Duration { return time.Duration(100_000 + rng.Int64N(9_900_000)) }
	var l CompletionLog
	var now sim.Time
	for range entries {
		now += between()
		l.AddFlagged(now, between(), rng.IntN(50) == 0)
	}
	used := 0
	for _, b := range l.completions.blocks {
		used += int(b.used)
	}
	perEntry := float64(used) / entries
	t.Logf("%d entries in %d blocks, %d B: %.2f B an entry", entries, len(l.completions.blocks), used, perEntry)
	if perEntry > 8 {
		t.Fatalf("a steady completion takes %.2f B in the log, over the budget of 8 B", perEntry)
	}
}

// TestCompletionLogInvertedAndEmptyWindows: every reader returns an
// empty result for a window holding no completions, including an
// inverted one (since > until), which used to slice out of range.
func TestCompletionLogInvertedAndEmptyWindows(t *testing.T) {
	var full CompletionLog
	for i := 0; i < 10; i++ {
		full.Add(ms(i*100), time.Duration(i)*time.Millisecond)
	}
	var empty CompletionLog
	cases := []struct {
		name         string
		log          *CompletionLog
		since, until sim.Time
	}{
		{"inverted", &full, ms(800), ms(200)},
		{"inverted across the log", &full, ms(5000), ms(-5000)},
		{"zero width at a record", &full, ms(300), ms(300)},
		{"between records", &full, ms(310), ms(390)},
		{"before the log", &full, ms(-500), ms(-100)},
		{"after the log", &full, ms(2000), ms(3000)},
		{"empty log", &empty, 0, ms(1000)},
		{"empty log inverted", &empty, ms(1000), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.log
			if g, b := l.Counts(tc.since, tc.until, time.Second); g != 0 || b != 0 {
				t.Errorf("Counts = (%d,%d), want (0,0)", g, b)
			}
			if g, d, v := l.CountsByOutcome(tc.since, tc.until, time.Second); g != 0 || d != 0 || v != 0 {
				t.Errorf("CountsByOutcome = (%d,%d,%d), want zeros", g, d, v)
			}
			if rts := l.ResponseTimes(tc.since, tc.until); len(rts) != 0 {
				t.Errorf("ResponseTimes = %v, want empty", rts)
			}
			if _, err := l.Percentile(50, tc.since, tc.until); !errors.Is(err, stats.ErrEmpty) {
				t.Errorf("Percentile error = %v, want %v", err, stats.ErrEmpty)
			}
			if w := l.Window(tc.since, tc.until); w != nil {
				t.Errorf("Window = %v, want nil", w)
			}
			_, tp := l.BucketRates(tc.since, tc.until, 100*time.Millisecond, time.Second)
			for i, v := range tp {
				if v != 0 {
					t.Errorf("BucketRates throughput[%d] = %g, want 0", i, v)
				}
			}
			if r := l.ThroughputRate(tc.since, tc.until); r != 0 {
				t.Errorf("ThroughputRate = %g, want 0", r)
			}
		})
	}
}
