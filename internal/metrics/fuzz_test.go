package metrics

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/stats"
)

// FuzzCompletionLog runs a stream of appends, prunes and reads decoded
// from the input through CompletionLog and through the plain-slice
// refLog, and requires Len after every operation and every reader after
// every read to agree. The operations reach the coding's edges: runs of
// equal At, deltas of 0 and above 2^56 ns, response times from 0 to
// MaxInt64, degraded flags, bursts that cross block boundaries, prune
// cutoffs before, inside and past the log, and inverted windows.
func FuzzCompletionLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 4, 1, 1, 6, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		next64 := func() uint64 {
			var b [8]byte
			n := copy(b[:], data)
			data = data[n:]
			return binary.LittleEndian.Uint64(b[:])
		}
		var (
			log CompletionLog
			ref refLog
			now = -sim.Time(next()) * sim.Time(time.Second)
		)
		add := func(delta sim.Time, rt time.Duration, degraded bool) {
			if now > 0 && delta > math.MaxInt64-now {
				delta = 0
			}
			now += delta
			log.AddFlagged(now, rt, degraded)
			ref.add(now, rt, degraded)
		}
		// pick returns a time near the log: before it, at or beside an
		// entry, or past it.
		pick := func() sim.Time {
			n := len(ref.cs)
			switch b := next(); {
			case n == 0 || b%4 == 0:
				return now + 1 + sim.Time(next())
			case b%4 == 1:
				return ref.cs[0].At - 1 - sim.Time(next())
			default:
				return ref.cs[(int(next())<<8|int(next()))%n].At + sim.Time(int(b%3)-1)
			}
		}
		for op := 0; len(data) > 0 && op < 200; op++ {
			switch next() % 8 {
			case 0, 1: // one completion
				var delta sim.Time
				switch c := next(); c % 4 {
				case 1:
					delta = sim.Time(next())
				case 2:
					delta = sim.Time(next64() % (1 << 40))
				case 3:
					delta = 1<<56 + sim.Time(next64()%(1<<58))
				}
				var rt time.Duration
				switch c := next(); c % 5 {
				case 1:
					rt = time.Duration(next()) * time.Microsecond
				case 2:
					rt = time.Duration(next64() & math.MaxInt64)
				case 3:
					rt = math.MaxInt64
				case 4:
					rt = time.Duration(next()) * time.Millisecond
				}
				add(delta, rt, next()&1 == 1)
			case 2: // a burst long enough to cross blocks
				rng := rand.New(rand.NewPCG(uint64(next()), 30))
				for range 64 + 8*int(next()%64) {
					add(sim.Time(rng.IntN(3))*sim.Time(time.Millisecond), time.Duration(rng.Int64N(int64(time.Second))), rng.IntN(50) == 0)
				}
			case 3: // prune
				cut := pick()
				log.Prune(cut)
				ref.prune(cut)
			default: // read
				since, until := pick(), pick()
				if next()&1 == 1 {
					since, until = until, since
				}
				th := time.Duration((next64() & math.MaxInt64) >> (next() % 64))
				bucket := max(span(since, until)/time.Duration(1+next()%16), 1)
				compareReaders(t, op, &log, &ref, since, until, th, bucket)
			}
			if log.Len() != len(ref.cs) {
				t.Fatalf("op %d: Len = %d, want %d", op, log.Len(), len(ref.cs))
			}
			checkCoded(t, &log.completions)
			checkHead(t, &log.completions)
		}
		if n := len(ref.cs); n > 0 {
			since, until := ref.cs[0].At, ref.cs[n-1].At
			if until < math.MaxInt64 {
				until++
			}
			compareReaders(t, -1, &log, &ref, since, until, time.Millisecond, max(span(since, until), 1))
		}
	})
}

// span returns the width of [since, until), 0 when the window is empty
// and MaxInt64 when the width does not fit.
func span(since, until sim.Time) time.Duration {
	switch w := until - since; {
	case until <= since:
		return 0
	case w < 0:
		return math.MaxInt64
	default:
		return w
	}
}

// compareReaders fails t unless every CompletionLog reader over
// [since, until) matches the reference's answer exactly.
func compareReaders(t *testing.T, op int, log *CompletionLog, ref *refLog, since, until sim.Time, th, bucket time.Duration) {
	t.Helper()
	if got, want := log.Window(since, until), ref.win(since, until); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("op %d: Window(%v, %v) = %v, want %v", op, since, until, got, want)
	}
	g, b := log.Counts(since, until, th)
	wg, wb := ref.counts(since, until, th)
	if g != wg || b != wb {
		t.Fatalf("op %d: Counts(%v, %v, %v) = (%d,%d), want (%d,%d)", op, since, until, th, g, b, wg, wb)
	}
	g, d, v := log.CountsByOutcome(since, until, th)
	if wg, wd, wv := ref.countsByOutcome(since, until, th); g != wg || d != wd || v != wv {
		t.Fatalf("op %d: CountsByOutcome = (%d,%d,%d), want (%d,%d,%d)", op, g, d, v, wg, wd, wv)
	}
	if until > since {
		secs := (until - since).Seconds()
		if got, want := log.GoodputRate(since, until, th), float64(wg)/secs; got != want {
			t.Fatalf("op %d: GoodputRate = %g, want %g", op, got, want)
		}
		if got, want := log.ThroughputRate(since, until), float64(wg+wb)/secs; got != want {
			t.Fatalf("op %d: ThroughputRate = %g, want %g", op, got, want)
		}
	}
	gp, tp := log.BucketRates(since, until, bucket, th)
	if wgp, wtp := ref.bucketRates(since, until, bucket, th); !sameFloats(gp, wgp) || !sameFloats(tp, wtp) {
		t.Fatalf("op %d: BucketRates(%v, %v, %v, %v) differ from the reference", op, since, until, bucket, th)
	}
	rts, wrts := log.ResponseTimes(since, until), ref.responseTimes(since, until)
	if !sameFloats(rts, wrts) {
		t.Fatalf("op %d: ResponseTimes = %v, want %v", op, rts, wrts)
	}
	pv, err := log.Percentile(90, since, until)
	wms, werr := stats.Percentile(wrts, 90)
	if (err != nil) != (werr != nil) || err == nil && pv != time.Duration(wms*float64(time.Millisecond)) {
		t.Fatalf("op %d: Percentile(90) = %v, %v; want %v ms, %v", op, pv, err, wms, werr)
	}
}
