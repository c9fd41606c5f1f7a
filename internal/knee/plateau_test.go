package knee

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sora/internal/stats"
)

// plateauShape builds a curve that rises to peak at x=rise, stays flat
// until x=drop, then falls off a cliff — the closed-loop goodput shape.
func plateauShape(xs []float64, rise, drop, peak float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		switch {
		case x <= rise:
			ys[i] = peak * x / rise
		case x <= drop:
			ys[i] = peak
		default:
			ys[i] = peak * math.Max(0, 1-0.2*(x-drop))
		}
	}
	return ys
}

func TestFindPlateauEndLocatesCliffEdge(t *testing.T) {
	xs := stats.Linspace(1, 50, 50)
	ys := plateauShape(xs, 8, 30, 1000)
	res, err := FindPlateauEnd(xs, ys, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Error("fallback on a curve with a clear cliff")
	}
	// The plateau runs to 30; the 8% tolerance admits the first step of
	// the decline (~30-32).
	if res.X < 28 || res.X > 34 {
		t.Errorf("plateau end at %g, want ~30", res.X)
	}
}

func TestFindPlateauEndRisingCurveFallsBack(t *testing.T) {
	xs := stats.Linspace(1, 40, 40)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 * x // never declines
	}
	res, err := FindPlateauEnd(xs, ys, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Error("rising curve must set Fallback (optimum beyond observed range)")
	}
	if res.X != 40 {
		t.Errorf("fallback X = %g, want the data edge 40", res.X)
	}
}

func TestFindPlateauEndToleranceMovesEdge(t *testing.T) {
	// A gently sagging plateau: tighter tolerance ends it earlier.
	xs := stats.Linspace(1, 40, 40)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 10 {
			ys[i] = 100 * x / 10
		} else {
			ys[i] = 100 - (x - 10) // sag of 1 per unit
		}
	}
	tight, err := FindPlateauEnd(xs, ys, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := FindPlateauEnd(xs, ys, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if tight.X >= loose.X {
		t.Errorf("tight tolerance end %g not before loose end %g", tight.X, loose.X)
	}
}

func TestFindPlateauEndTooFewPoints(t *testing.T) {
	_, err := FindPlateauEnd([]float64{1, 2, 3}, []float64{1, 2, 3}, 0.08)
	if !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("got %v, want ErrTooFewPoints", err)
	}
}

func TestFindPlateauEndLengthMismatch(t *testing.T) {
	if _, err := FindPlateauEnd([]float64{1, 2, 3, 4, 5}, []float64{1}, 0.08); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestFindPlateauEndRejectsNonPositiveTolerance(t *testing.T) {
	xs := stats.Linspace(1, 10, 10)
	ys := plateauShape(xs, 3, 6, 100)
	for _, tol := range []float64{0, -0.08} {
		if _, err := FindPlateauEnd(xs, ys, tol); err == nil {
			t.Errorf("tolerance %g: expected an error", tol)
		}
	}
}

func TestFindPlateauEndAllZeroFallsBack(t *testing.T) {
	xs := stats.Linspace(1, 10, 10)
	ys := make([]float64, len(xs))
	res, err := FindPlateauEnd(xs, ys, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Error("zero curve must fall back")
	}
}

// Property: the plateau end never precedes the curve's maximum.
func TestQuickPlateauEndAtOrAfterPeak(t *testing.T) {
	f := func(riseRaw, dropRaw uint8) bool {
		rise := float64(riseRaw%20) + 3
		drop := rise + float64(dropRaw%20) + 2
		xs := stats.Linspace(1, drop+15, int(drop+15))
		ys := plateauShape(xs, rise, drop, 500)
		res, err := FindPlateauEnd(xs, ys, 0.08)
		if err != nil {
			return false
		}
		// Peak is reached at x=rise; plateau end must be >= that.
		return res.X >= rise-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: y-scaling invariance (plateau end depends on shape only).
func TestQuickPlateauScaleInvariant(t *testing.T) {
	f := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%90)/10 + 0.2
		xs := stats.Linspace(1, 45, 45)
		ys := plateauShape(xs, 9, 27, 600)
		ys2 := make([]float64, len(ys))
		for i, v := range ys {
			ys2[i] = v * scale
		}
		a, err1 := FindPlateauEnd(xs, ys, 0.08)
		b, err2 := FindPlateauEnd(xs, ys2, 0.08)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Index == b.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 90}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFindPlateauEnd(b *testing.B) {
	xs := stats.Linspace(1, 60, 600)
	ys := plateauShape(xs, 12, 35, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindPlateauEnd(xs, ys, 0.08); err != nil {
			b.Fatal(err)
		}
	}
}
