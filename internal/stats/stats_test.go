package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", Mean(xs), 5, 1e-12)
	if Mean(nil) != 0 {
		t.Error("empty-input mean not zero")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %g/%g, want -1/7", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max not 0")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r, 1, 1e-12)

	yneg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(x, yneg)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r, -1, 1e-12)
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 10_000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Errorf("independent samples r = %g, want ~0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch: %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single pair")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("zero variance: %v", err)
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{100, 200, 400}
	pred := []float64{110, 180, 400}
	// |10/100| + |20/200| + 0 = 0.1 + 0.1 + 0 => mean 0.0667 => 6.67%.
	got, err := MAPE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mape", got, 100.0/15, 1e-9)
}

func TestMAPESkipsZeros(t *testing.T) {
	got, err := MAPE([]float64{0, 100}, []float64{999, 110})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mape", got, 10, 1e-12)
	if _, err := MAPE([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("expected error when all actuals are zero")
	}
}

func TestMAPEErrors(t *testing.T) {
	if _, err := MAPE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: %v", err)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tt := range []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
		{90, 46},
	} {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "percentile", got, tt.want, 1e-9)
	}
}

// TestPercentileBoundaries asserts the exact-boundary contract: p=0 and
// p=100 return the exact min/max (no interpolation arithmetic), and p
// values adjacent to the boundaries never index past the slice even when
// rank = p/100*(n-1) rounds up.
func TestPercentileBoundaries(t *testing.T) {
	for _, tt := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"p0 exact min", []float64{3, 1, 2}, 0, 1},
		{"p100 exact max", []float64{3, 1, 2}, 100, 3},
		{"single p0", []float64{42}, 0, 42},
		{"single p100", []float64{42}, 100, 42},
		{"single mid", []float64{42}, 37.5, 42},
		{"two p0", []float64{5, 9}, 0, 5},
		{"two p100", []float64{5, 9}, 100, 9},
		{"p0 with negatives", []float64{-7, 0, 7}, 0, -7},
		{"p100 with duplicates", []float64{4, 4, 4}, 100, 4},
	} {
		got, err := Percentile(tt.xs, tt.p)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got != tt.want {
			t.Errorf("%s: Percentile = %g, want exactly %g", tt.name, got, tt.want)
		}
	}

	// Rounding stress: p just below 100 across many sizes must stay in
	// range and between min and max.
	justBelow := math.Nextafter(100, 0)
	justAbove := math.Nextafter(0, 100)
	for n := 1; n <= 64; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		for _, p := range []float64{justAbove, 0.1, 99.9, justBelow} {
			v, err := Percentile(xs, p)
			if err != nil {
				t.Fatalf("n=%d p=%v: %v", n, p, err)
			}
			if v < 0 || v > float64(n-1) {
				t.Fatalf("n=%d p=%v: Percentile = %g outside [min,max]", n, p, v)
			}
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("expected error for p<0")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("expected error for p>100")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		approx(t, "linspace", got[i], want[i], 1e-12)
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("n=0 should return nil")
	}
	if got := Linspace(5, 9, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("n=1 = %v", got)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		approx(t, "ma", got[i], want[i], 1e-12)
	}
	// Window 1 is identity.
	got = MovingAverage(xs, 1)
	for i := range xs {
		approx(t, "ma1", got[i], xs[i], 1e-12)
	}
	// Even window rounded up: same as window 3.
	got = MovingAverage(xs, 2)
	approx(t, "ma2", got[2], 3, 1e-12)
}

func TestPolyFitExactQuadratic(t *testing.T) {
	// y = 3 - 2x + 0.5x^2
	f := func(x float64) float64 { return 3 - 2*x + 0.5*x*x }
	x := Linspace(-5, 5, 30)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = f(v)
	}
	p, err := PolyFit(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-4, 0, 2.5, 7} {
		approx(t, "eval", p.Eval(v), f(v), 1e-6)
	}
	if len(p.Coeffs) != 3 {
		t.Errorf("degree = %d, want 2", len(p.Coeffs)-1)
	}
}

func TestPolyFitHighDegreeStable(t *testing.T) {
	// Degree-8 fit on a smooth function over a large-offset domain must
	// stay accurate thanks to internal normalisation.
	f := func(x float64) float64 { return math.Sin(x / 50) }
	x := Linspace(1000, 1300, 100)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = f(v)
	}
	p, err := PolyFit(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := FitRMSE(p, x, y); rmse > 1e-4 {
		t.Errorf("degree-8 RMSE = %g, want < 1e-4", rmse)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("mismatch: %v", err)
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 5); err == nil {
		t.Error("expected error for too few points")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("expected error for negative degree")
	}
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); !errors.Is(err, ErrDegenerate) {
		t.Errorf("identical x: %v", err)
	}
}

func TestPolyFitIdenticalXDegreeZero(t *testing.T) {
	p, err := PolyFit([]float64{5, 5, 5}, []float64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "constant", p.Eval(123), 2, 1e-12)
}

func TestEmptyPolyEval(t *testing.T) {
	var p Poly
	if p.Eval(3) != 0 {
		t.Error("empty poly should evaluate to 0")
	}
	if len(p.Coeffs) != 0 {
		t.Errorf("empty poly has %d coefficients, want 0", len(p.Coeffs))
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestQuickPearsonBoundsAndSymmetry(t *testing.T) {
	f := func(pairs []struct{ A, B int8 }) bool {
		if len(pairs) < 3 {
			return true
		}
		x := make([]float64, len(pairs))
		y := make([]float64, len(pairs))
		for i, p := range pairs {
			x[i] = float64(p.A)
			y[i] = float64(p.B)
		}
		r1, err1 := Pearson(x, y)
		r2, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return true // degenerate draws are fine
		}
		return r1 >= -1-1e-9 && r1 <= 1+1e-9 && math.Abs(r1-r2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is invariant under positive affine transforms of x.
func TestQuickPearsonAffineInvariance(t *testing.T) {
	f := func(raw []int8, scale uint8, shift int8) bool {
		if len(raw) < 4 {
			return true
		}
		s := float64(scale%20) + 1
		x := make([]float64, len(raw))
		y := make([]float64, len(raw))
		x2 := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(v)
			y[i] = float64(int(v) * int(v) % 37) // arbitrary but deterministic
			x2[i] = s*x[i] + float64(shift)
		}
		r1, err1 := Pearson(x, y)
		r2, err2 := Pearson(x2, y)
		if err1 != nil || err2 != nil {
			return true
		}
		return math.Abs(r1-r2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a polynomial fit of degree >= data-generating degree
// reproduces the data exactly (up to numerics).
func TestQuickPolyFitInterpolates(t *testing.T) {
	f := func(c0, c1, c2 int8) bool {
		x := Linspace(0, 10, 25)
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = float64(c0) + float64(c1)*v + float64(c2)*v*v
		}
		p, err := PolyFit(x, y, 3)
		if err != nil {
			return false
		}
		return FitRMSE(p, x, y) < 1e-6*(1+math.Abs(float64(c2))*100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil {
				return false
			}
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPolyFitDegree8(b *testing.B) {
	x := Linspace(0, 30, 600)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 100*v/(1+v/8) + math.Sin(v)*10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PolyFit(x, y, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPearson(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 600
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = x[i] + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pearson(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
