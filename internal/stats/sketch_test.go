package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// sketchDatasets are the adversarial distributions the property suite
// runs every bound check over: shapes that break naive quantile
// estimators (mass on one point, widely separated modes, extreme tails)
// plus pathological insert orders.
func sketchDatasets(n int) map[string][]float64 {
	rng := rand.New(rand.NewPCG(42, 7))
	sets := map[string][]float64{}

	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 37.5
	}
	sets["constant"] = constant

	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Float64() < 0.5 {
			bimodal[i] = 1 + rng.Float64()
		} else {
			bimodal[i] = 1e4 + 1e3*rng.Float64()
		}
	}
	sets["bimodal"] = bimodal

	// Pareto-ish heavy tail spanning many orders of magnitude.
	heavy := make([]float64, n)
	for i := range heavy {
		heavy[i] = math.Pow(1-rng.Float64(), -1.5)
	}
	sets["heavy_tail"] = heavy

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1e-3 + 1e3*rng.Float64()
	}
	sets["uniform"] = uniform

	sorted := make([]float64, n)
	copy(sorted, uniform)
	sort.Float64s(sorted)
	sets["sorted"] = sorted

	reversed := make([]float64, n)
	for i, v := range sorted {
		reversed[n-1-i] = v
	}
	sets["reverse_sorted"] = reversed

	return sets
}

// checkQuantileBounds asserts the sketch estimate at each percentile is
// within the documented relative-error bound of the exact sorted-slice
// oracle. Percentile interpolates between adjacent ranks while the
// sketch targets the floor rank, so the estimate is compared against
// the widest interval [lo·(1−α−ε), hi·(1+α+ε)] where lo/hi bracket the
// interpolation rank.
func checkQuantileBounds(t *testing.T, s *Sketch, xs []float64, alpha float64) {
	t.Helper()
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	const eps = 1e-9
	for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		got, err := s.Quantile(p)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", p, err)
		}
		rank := p / 100 * float64(len(sorted)-1)
		lo := sorted[int(math.Floor(rank))]
		hi := sorted[int(math.Ceil(rank))]
		min := lo * (1 - alpha - eps)
		max := hi * (1 + alpha + eps)
		if got < min || got > max {
			exact, _ := Percentile(xs, p)
			t.Errorf("Quantile(%g) = %g outside [%g, %g] (exact oracle %g, alpha %g)",
				p, got, min, max, exact, alpha)
		}
	}
}

// TestSketchQuantileBounds is satellite (c)'s core property: across
// adversarial distributions and insert orders, every sketch quantile
// stays within alpha relative error of the exact stats.Percentile
// oracle.
func TestSketchQuantileBounds(t *testing.T) {
	for name, xs := range sketchDatasets(5000) {
		t.Run(name, func(t *testing.T) {
			for _, alpha := range []float64{0.005, 0.01, 0.05} {
				s := NewSketch(alpha)
				for _, v := range xs {
					s.Observe(v)
				}
				if s.Count() != uint64(len(xs)) {
					t.Fatalf("Count = %d, want %d", s.Count(), len(xs))
				}
				checkQuantileBounds(t, s, xs, alpha)
			}
		})
	}
}

// TestSketchExactEndpoints: p=0 and p=100 are exact, matching the
// oracle's convention, because min/max are tracked outside the buckets.
func TestSketchExactEndpoints(t *testing.T) {
	for name, xs := range sketchDatasets(1000) {
		s := NewSketch(0)
		for _, v := range xs {
			s.Observe(v)
		}
		wantMin, _ := Percentile(xs, 0)
		wantMax, _ := Percentile(xs, 100)
		if got, _ := s.Quantile(0); got != wantMin {
			t.Errorf("%s: Quantile(0) = %g, want exact min %g", name, got, wantMin)
		}
		if got, _ := s.Quantile(100); got != wantMax {
			t.Errorf("%s: Quantile(100) = %g, want exact max %g", name, got, wantMax)
		}
		if s.min != wantMin || s.max != wantMax {
			t.Errorf("%s: Min/Max = %g/%g, want %g/%g", name, s.min, s.max, wantMin, wantMax)
		}
	}
}

// TestSketchInsertOrderInvariance: sketch state is a pure function of
// the observed multiset — sorted, reverse-sorted and shuffled insertion
// of the same values produce identical quantiles at every probe point.
func TestSketchInsertOrderInvariance(t *testing.T) {
	sets := sketchDatasets(2000)
	orders := []string{"uniform", "sorted", "reverse_sorted"}
	sketches := make([]*Sketch, len(orders))
	for i, name := range orders {
		s := NewSketch(0)
		for _, v := range sets[name] {
			s.Observe(v)
		}
		sketches[i] = s
	}
	for p := 0.0; p <= 100; p += 0.5 {
		q0, _ := sketches[0].Quantile(p)
		for i := 1; i < len(sketches); i++ {
			qi, _ := sketches[i].Quantile(p)
			if qi != q0 {
				t.Fatalf("Quantile(%g) differs by insert order: %g (%s) vs %g (%s)",
					p, q0, orders[0], qi, orders[i])
			}
		}
	}
}

// TestSketchMergeAssociativity: (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) — and a
// straight serial fold — yield bucket-for-bucket identical state, the
// property that makes parallel merge trees deterministic.
func TestSketchMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 11))
	parts := make([][]float64, 3)
	var all []float64
	for i := range parts {
		parts[i] = make([]float64, 700+i*137)
		for j := range parts[i] {
			parts[i][j] = math.Pow(1-rng.Float64(), -1.2)
		}
		all = append(all, parts[i]...)
	}
	build := func(xs []float64) *Sketch {
		s := NewSketch(0)
		for _, v := range xs {
			s.Observe(v)
		}
		return s
	}
	// Left fold: ((a ⊕ b) ⊕ c).
	left := build(parts[0])
	if err := left.Merge(build(parts[1])); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(build(parts[2])); err != nil {
		t.Fatal(err)
	}
	// Right fold: a ⊕ (b ⊕ c).
	bc := build(parts[1])
	if err := bc.Merge(build(parts[2])); err != nil {
		t.Fatal(err)
	}
	right := build(parts[0])
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}
	// Serial: every value observed into one sketch.
	serial := build(all)

	for _, pair := range []struct {
		name string
		s    *Sketch
	}{{"right-fold", right}, {"serial", serial}} {
		if pair.s.Count() != left.Count() {
			t.Fatalf("%s Count = %d, want %d", pair.name, pair.s.Count(), left.Count())
		}
		if pair.s.min != left.min || pair.s.max != left.max {
			t.Fatalf("%s min/max mismatch", pair.name)
		}
		for i := range left.buckets {
			if pair.s.buckets[i] != left.buckets[i] {
				t.Fatalf("%s bucket %d = %d, want %d", pair.name, i, pair.s.buckets[i], left.buckets[i])
			}
		}
	}
	checkQuantileBounds(t, left, all, left.alpha)
}

// TestSketchParallelMergeDeterminism: partition a dataset across
// goroutines, each observing into a private sketch; merging the results
// in index order matches the single-threaded serial sketch exactly, at
// any worker count. This is the flight recorder's serial-vs-parallel
// byte-equality invariant at the sketch layer.
func TestSketchParallelMergeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	xs := make([]float64, 8000)
	for i := range xs {
		xs[i] = 1e-2 + 1e5*rng.Float64()
	}
	serial := NewSketch(0)
	for _, v := range xs {
		serial.Observe(v)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		shards := make([]*Sketch, workers)
		done := make(chan int, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				s := NewSketch(0)
				for i := w; i < len(xs); i += workers {
					s.Observe(xs[i])
				}
				shards[w] = s
				done <- w
			}(w)
		}
		for range shards {
			<-done
		}
		merged := NewSketch(0)
		for _, s := range shards {
			if err := merged.Merge(s); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Count() != serial.Count() {
			t.Fatalf("workers=%d: Count = %d, want %d", workers, merged.Count(), serial.Count())
		}
		for i := range serial.buckets {
			if merged.buckets[i] != serial.buckets[i] {
				t.Fatalf("workers=%d: bucket %d = %d, want %d",
					workers, i, merged.buckets[i], serial.buckets[i])
			}
		}
	}
}

// TestSketchMergeIncompatible: merging sketches built with different
// bucket configurations (different alpha, and therefore gamma and key
// origin) must fail loudly rather than silently add misaligned bucket
// arrays, and a failed merge must leave the destination untouched.
func TestSketchMergeIncompatible(t *testing.T) {
	a := NewSketch(0.01)
	a.Observe(10)
	b := NewSketch(0.05)
	b.Observe(1)
	b.Observe(1000)
	err := a.Merge(b)
	if err == nil {
		t.Fatal("Merge of incompatible alphas succeeded, want error")
	}
	for _, frag := range []string{"0.01", "0.05", "incompatible"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("incompatible-merge error %q does not name %q", err, frag)
		}
	}
	// The destination must be untouched by the refused merge.
	if a.Count() != 1 {
		t.Fatalf("failed Merge mutated the destination: count = %d, want 1", a.Count())
	}
	if got, _ := a.Quantile(50); got != a.max {
		t.Fatalf("failed Merge perturbed quantiles: p50 = %g, want %g", got, a.max)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("Merge(nil) = %v, want no-op", err)
	}
	empty := NewSketch(0.05)
	if err := a.Merge(empty); err != nil {
		t.Fatalf("Merge(empty) = %v, want no-op (empty sketches merge regardless of shape)", err)
	}
}

// TestSketchEdgeCases covers empty sketches, out-of-range percentiles,
// clamping of non-positive and huge values, NaN rejection and Reset.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch(0)
	if _, err := s.Quantile(50); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty Quantile err = %v, want ErrEmpty", err)
	}
	if got := s.QuantileOr(50, -1); got != -1 {
		t.Fatalf("empty QuantileOr = %g, want fallback -1", got)
	}

	s.Observe(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN was counted")
	}
	s.Observe(-5)   // clamps to SketchMinValue
	s.Observe(0)    // clamps to SketchMinValue
	s.Observe(1e12) // clamps to SketchMaxValue
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.min != SketchMinValue {
		t.Fatalf("Min = %g, want clamp %g", s.min, SketchMinValue)
	}
	if s.max != SketchMaxValue {
		t.Fatalf("Max = %g, want clamp %g", s.max, SketchMaxValue)
	}
	if _, err := s.Quantile(-1); err == nil {
		t.Fatal("Quantile(-1) succeeded")
	}
	if _, err := s.Quantile(101); err == nil {
		t.Fatal("Quantile(101) succeeded")
	}

	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
	if _, err := s.Quantile(50); !errors.Is(err, ErrEmpty) {
		t.Fatal("Reset sketch still answers quantiles")
	}
	s.Observe(2)
	if got, _ := s.Quantile(50); math.Abs(got-2) > 2*DefaultSketchAlpha*2 {
		t.Fatalf("post-Reset Quantile(50) = %g, want ~2", got)
	}
}

// TestSketchObserveAllocFree pins the zero-steady-state-allocation
// guarantee the flight recorder's request-path hook depends on: after
// construction, Observe and Quantile never allocate.
func TestSketchObserveAllocFree(t *testing.T) {
	s := NewSketch(0)
	rng := rand.New(rand.NewPCG(3, 1))
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = 1 + 1e4*rng.Float64()
	}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		s.Observe(vals[i%len(vals)])
		i++
	}); avg != 0 {
		t.Fatalf("Observe allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.QuantileOr(99, 0)
	}); avg != 0 {
		t.Fatalf("Quantile allocates %.1f objects per call, want 0", avg)
	}
	other := NewSketch(0)
	other.Observe(5)
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.Merge(other); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Merge allocates %.1f objects per call, want 0", avg)
	}
}
