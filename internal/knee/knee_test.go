package knee

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sora/internal/stats"
)

// saturating builds a clean saturating curve y = cap * x/(x + halfway):
// rises steeply, flattens around x ~ a few times halfway.
func saturating(xs []float64, cap, halfway float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = cap * x / (x + halfway)
	}
	return ys
}

// goodputShape builds the characteristic goodput curve: near-linear rise
// to a knee at k, then a droop beyond it.
func goodputShape(xs []float64, k, peak float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		if x <= k {
			ys[i] = peak * x / k
		} else {
			ys[i] = peak * (1 - 0.02*(x-k)) // gentle decline past the knee
		}
		if ys[i] < 0 {
			ys[i] = 0
		}
	}
	return ys
}

func TestFindKneeOnSaturatingCurve(t *testing.T) {
	xs := stats.Linspace(1, 50, 50)
	ys := saturating(xs, 1000, 5)
	res, err := Find(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("fell back to peak on a clean saturating curve")
	}
	// The knee of x/(x+5) sampled on [1,50] sits in the single digits.
	if res.X < 2 || res.X > 15 {
		t.Errorf("knee at x=%g, want in [2,15]", res.X)
	}
}

func TestFindKneeOnGoodputShape(t *testing.T) {
	xs := stats.Linspace(1, 60, 60)
	ys := goodputShape(xs, 30, 2000)
	res, err := Find(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-30) > 6 {
		t.Errorf("knee at x=%g, want ~30", res.X)
	}
}

func TestFindWithSmoothingOnNoisyCurve(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	xs := stats.Linspace(1, 60, 120)
	ys := goodputShape(xs, 25, 1500)
	for i := range ys {
		ys[i] += rng.NormFloat64() * 60 // ~4% noise
		if ys[i] < 0 {
			ys[i] = 0
		}
	}
	res, err := Find(xs, ys, Options{Degree: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-25) > 8 {
		t.Errorf("smoothed knee at x=%g, want ~25", res.X)
	}
}

func TestKneeMovesWithSaturationPoint(t *testing.T) {
	xs := stats.Linspace(1, 100, 100)
	find := func(k float64) float64 {
		res, err := Find(xs, goodputShape(xs, k, 1000), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	k10, k40 := find(10), find(40)
	if k10 >= k40 {
		t.Errorf("knee ordering violated: knee(k=10)=%g >= knee(k=40)=%g", k10, k40)
	}
}

func TestLinearCurveFallsBack(t *testing.T) {
	xs := stats.Linspace(1, 40, 40)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x // pure linear: no knee
	}
	res, err := Find(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Errorf("linear curve produced a knee at x=%g", res.X)
	}
	if res.X != 40 {
		t.Errorf("fallback should be the maximum (x=40), got %g", res.X)
	}
}

func TestTooFewPoints(t *testing.T) {
	_, err := Find([]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, Options{})
	if !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("got %v, want ErrTooFewPoints", err)
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := Find([]float64{1, 2, 3}, []float64{1}, Options{}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestDuplicateXAveraged(t *testing.T) {
	// Duplicated x values (as produced by repeated concurrency samples)
	// must be merged, not rejected.
	var xs, ys []float64
	for rep := 0; rep < 3; rep++ {
		for i := 1; i <= 30; i++ {
			xs = append(xs, float64(i))
			ys = append(ys, goodputShape([]float64{float64(i)}, 12, 900)[0]+float64(rep))
		}
	}
	res, err := Find(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-12) > 5 {
		t.Errorf("knee at x=%g, want ~12", res.X)
	}
}

func TestNaNAndInfFiltered(t *testing.T) {
	xs := stats.Linspace(1, 30, 30)
	ys := saturating(xs, 500, 4)
	xs = append(xs, math.NaN(), math.Inf(1))
	ys = append(ys, 1, math.NaN())
	if _, err := Find(xs, ys, Options{}); err != nil {
		t.Fatalf("NaN/Inf not filtered: %v", err)
	}
}

func TestConstantCurveFallsBack(t *testing.T) {
	xs := stats.Linspace(1, 20, 20)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = 100
	}
	res, err := Find(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Error("constant curve should fall back")
	}
}

func TestFindAutoPicksWorkingDegree(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	xs := stats.Linspace(1, 50, 200)
	ys := goodputShape(xs, 20, 1800)
	for i := range ys {
		ys[i] += rng.NormFloat64() * 50
		if ys[i] < 0 {
			ys[i] = 0
		}
	}
	res, err := FindAuto(xs, ys, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degree < 5 || res.Degree > 8 {
		t.Errorf("degree = %d, want in [5,8]", res.Degree)
	}
	if math.Abs(res.X-20) > 8 {
		t.Errorf("auto knee at x=%g, want ~20", res.X)
	}
}

func TestFindAutoTooFewPoints(t *testing.T) {
	if _, err := FindAuto([]float64{1, 2}, []float64{1, 2}, AutoOptions{}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("got %v, want ErrTooFewPoints", err)
	}
}

// Property: the returned knee always lies within the x range of the input.
func TestQuickKneeInRange(t *testing.T) {
	f := func(seed uint32, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(uint64(seed), 77))
		k := float64(kRaw%40) + 5
		xs := stats.Linspace(1, 60, 60)
		ys := goodputShape(xs, k, 1000)
		for i := range ys {
			ys[i] += rng.NormFloat64() * 20
		}
		res, err := Find(xs, ys, Options{Degree: 5})
		if err != nil {
			return false
		}
		return res.X >= 1 && res.X <= 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: scaling y uniformly does not move the knee (normalisation
// invariance).
func TestQuickScaleInvariance(t *testing.T) {
	f := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%100)/10 + 0.1
		xs := stats.Linspace(1, 50, 50)
		ys := goodputShape(xs, 18, 1000)
		ys2 := make([]float64, len(ys))
		for i, v := range ys {
			ys2[i] = v * scale
		}
		r1, err1 := Find(xs, ys, Options{})
		r2, err2 := Find(xs, ys2, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Index == r2.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFindAuto600Points(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 600)
	ys := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i%30 + 1)
	}
	base := goodputShape(stats.Linspace(1, 30, 30), 12, 1500)
	for i := range ys {
		ys[i] = base[i%30] + rng.NormFloat64()*40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindAuto(xs, ys, AutoOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
