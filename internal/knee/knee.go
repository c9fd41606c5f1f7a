// Package knee implements the Kneedle knee-point detection algorithm
// (Satopaa, Albrecht, Irwin, Raghavan: "Finding a 'Kneedle' in a Haystack",
// ICDCS Workshops 2011) together with the incremental polynomial-degree
// tuning strategy the Sora paper layers on top (section 3.3).
//
// The SCG model feeds Kneedle the aggregated concurrency-goodput curve of
// a critical microservice; the detected knee is the recommended optimal
// concurrency setting. Goodput curves rise roughly linearly, flatten at
// the knee and then droop as multithreading overhead and deadline misses
// bite, so detection runs on the rising prefix up to the smoothed maximum.
package knee

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sora/internal/stats"
)

// Errors returned by Find.
var (
	ErrTooFewPoints = errors.New("knee: need at least 5 distinct x values")
)

// sensitivity is Kneedle's S parameter: larger values demand a more
// pronounced flattening before declaring a knee. 1.0 is the paper's.
const sensitivity = 1.0

// The smoothing degrees FindAuto tries, low to high: the paper's range.
const (
	minDegree = 5
	maxDegree = 8
)

// maxRMSEFraction is FindAuto's underfit guard: a degree whose smoothed
// curve deviates from the raw data by more than this fraction of the
// data's range is rejected.
const maxRMSEFraction = 0.25

// Options configures knee detection.
type Options struct {
	// Degree is the smoothing-polynomial degree. Zero disables smoothing
	// (the raw curve is used, which only works on clean data). The Sora
	// paper reports degrees 5-8 fit 1-minute profiles well.
	Degree int
}

// Result describes a detected knee.
type Result struct {
	X     float64 // knee location (the optimal concurrency)
	Y     float64 // smoothed curve value at the knee
	Index int     // index into the de-duplicated, x-sorted input
	// Degree is the smoothing degree that produced this result (set by
	// FindAuto; echoes Options.Degree for Find).
	Degree int
	// Fallback is true when Kneedle found no local-maximum knee and the
	// result is the curve's maximum instead — the "blurred knee" case the
	// paper attributes to insufficient concurrency exploration.
	Fallback bool
}

// Find locates the knee of the curve given by the points (x_i, y_i).
// The input need not be sorted; duplicate x values are averaged. At least
// five distinct x values are required.
func Find(x, y []float64, opts Options) (Result, error) {
	if len(x) != len(y) {
		return Result{}, fmt.Errorf("knee: input lengths differ: %d vs %d", len(x), len(y))
	}
	xs, ys := dedupe(x, y)
	if len(xs) < 5 {
		return Result{}, fmt.Errorf("%w, have %d", ErrTooFewPoints, len(xs))
	}

	// Smooth: fit a polynomial and resample it at the observed x values.
	// This plays the role of Kneedle's smoothing spline.
	smooth := ys
	if opts.Degree > 0 {
		if len(xs) >= opts.Degree+1 {
			p, err := stats.PolyFit(xs, ys, opts.Degree)
			if err != nil {
				return Result{}, fmt.Errorf("knee: smoothing failed: %w", err)
			}
			smooth = make([]float64, len(xs))
			for i, v := range xs {
				smooth[i] = p.Eval(v)
			}
		}
	}

	// Goodput curves droop after saturation; Kneedle's concave-increasing
	// form needs the rising prefix only.
	imax := argmax(smooth)
	peak := Result{X: xs[imax], Y: smooth[imax], Index: imax, Degree: opts.Degree, Fallback: true}
	if imax < 2 {
		// Curve peaks immediately: no rising region to analyse.
		return peak, nil
	}
	px := xs[:imax+1]
	py := smooth[:imax+1]

	// Normalise to the unit square.
	nx, okx := normalize(px)
	ny, oky := normalize(py)
	if !okx || !oky {
		return peak, nil
	}

	// Difference curve.
	diff := make([]float64, len(nx))
	for i := range nx {
		diff[i] = ny[i] - nx[i]
	}

	// Mean spacing of normalised x, for the threshold decay.
	meanDx := 0.0
	for i := 1; i < len(nx); i++ {
		meanDx += nx[i] - nx[i-1]
	}
	meanDx /= float64(len(nx) - 1)

	// Collect the local maxima of the difference curve (knee candidates).
	var lmx []int
	for i := 1; i < len(diff)-1; i++ {
		if diff[i] >= diff[i-1] && diff[i] > diff[i+1] {
			lmx = append(lmx, i)
		}
	}

	// A candidate is a confirmed knee if the difference curve falls below
	// its decayed threshold before the next candidate appears (Kneedle's
	// early-reset rule). Candidates are examined in x order; the first
	// confirmed one wins.
	for ci, i := range lmx {
		threshold := diff[i] - sensitivity*meanDx
		end := len(diff)
		if ci+1 < len(lmx) {
			end = lmx[ci+1]
		}
		for j := i + 1; j < end; j++ {
			if diff[j] < threshold {
				return Result{X: px[i], Y: py[i], Index: i, Degree: opts.Degree}, nil
			}
		}
		// Special case: the rising prefix ends at the curve peak. If this
		// is the last candidate and the curve visibly flattens through the
		// remaining points (diff strictly decreasing to the end), the peak
		// shoulder is the knee even though the decay never crossed the
		// threshold — without it, curves truncated right at saturation
		// would always fall back.
		if ci == len(lmx)-1 && end == len(diff) && i < len(diff)-1 {
			flattening := true
			for j := i + 1; j < len(diff); j++ {
				if diff[j] >= diff[j-1] {
					flattening = false
					break
				}
			}
			if flattening && diff[i]-diff[len(diff)-1] >= sensitivity*meanDx/2 {
				return Result{X: px[i], Y: py[i], Index: i, Degree: opts.Degree}, nil
			}
		}
	}
	return peak, nil
}

// AutoOptions is FindAuto's option set. It is empty: every caller used
// the paper's degree range, sensitivity and underfit guard, so those are
// constants now. The type stays only because the benchmark module's
// probes name it; it goes when that module next changes.
type AutoOptions struct{}

// FindAuto implements the paper's incremental tuning strategy: it tries
// smoothing degrees from low to high and returns the first degree that
// yields a valid (non-fallback) knee whose fit matches the profiling data.
// If no degree produces a confirmed knee, the lowest-degree fallback (the
// curve maximum) is returned with Fallback set.
func FindAuto(x, y []float64, _ AutoOptions) (Result, error) {
	xs, ys := dedupe(x, y)
	if len(xs) < 5 {
		return Result{}, fmt.Errorf("%w, have %d", ErrTooFewPoints, len(xs))
	}
	yRange := stats.Max(ys) - stats.Min(ys)

	var firstErr error
	var fallback *Result
	for deg := minDegree; deg <= maxDegree; deg++ {
		if len(xs) < deg+1 {
			break // not enough points for higher degrees
		}
		res, err := Find(xs, ys, Options{Degree: deg})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Check the smoothed curve actually matches the profiling data.
		if yRange > 0 {
			p, err := stats.PolyFit(xs, ys, deg)
			if err == nil && stats.FitRMSE(p, xs, ys) > maxRMSEFraction*yRange {
				continue
			}
		}
		if !res.Fallback {
			return res, nil
		}
		if fallback == nil {
			f := res
			fallback = &f
		}
	}
	if fallback != nil {
		return *fallback, nil
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	// Degrees all underfit: retry without the RMSE guard at min degree.
	return Find(xs, ys, Options{Degree: minDegree})
}

// FindPlateauEnd locates the *end* of the curve's peak plateau: the
// largest x whose y still reaches within tol of the maximum, tol being
// the fraction of the peak the curve may sag before the plateau is
// considered over. A non-positive tol is an error.
// Smoothing is the caller's: core averages the curve before it calls
// here. This is the estimator the goodput main-sequence curve needs:
// past the optimal concurrency goodput *declines* (deadline misses and
// multithreading overhead), so the optimum is the last concurrency that
// sustains peak goodput — the right edge of the plateau — rather than the
// first point where the curve flattens (which, under closed-loop demand,
// often reflects demand saturation instead of a resource optimum).
//
// Fallback is true when the plateau extends to the final data point: the
// curve never declined within the observed range, so the true optimum may
// lie beyond it (the "blurred knee" case the paper resolves by gradually
// increasing the allocation).
func FindPlateauEnd(x, y []float64, tol float64) (Result, error) {
	if tol <= 0 {
		return Result{}, fmt.Errorf("knee: plateau tolerance %g must be positive", tol)
	}
	if len(x) != len(y) {
		return Result{}, fmt.Errorf("knee: input lengths differ: %d vs %d", len(x), len(y))
	}
	xs, ys := dedupe(x, y)
	if len(xs) < 5 {
		return Result{}, fmt.Errorf("%w, have %d", ErrTooFewPoints, len(xs))
	}
	peakIdx := argmax(ys)
	peak := ys[peakIdx]
	if peak <= 0 {
		return Result{X: xs[peakIdx], Y: peak, Index: peakIdx, Fallback: true}, nil
	}
	end := peakIdx
	for i := peakIdx + 1; i < len(ys); i++ {
		if ys[i] < (1-tol)*peak {
			break
		}
		end = i
	}
	return Result{
		X:        xs[end],
		Y:        ys[end],
		Index:    end,
		Fallback: end == len(xs)-1,
	}, nil
}

// dedupe sorts points by x and averages y values sharing the same x.
func dedupe(x, y []float64) ([]float64, []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, 0, len(x))
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) || math.IsInf(x[i], 0) || math.IsInf(y[i], 0) {
			continue
		}
		pts = append(pts, pt{x[i], y[i]})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	var xs, ys []float64
	i := 0
	for i < len(pts) {
		j := i
		var sum float64
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		xs = append(xs, pts[i].x)
		ys = append(ys, sum/float64(j-i))
		i = j
	}
	return xs, ys
}

// normalize maps vs onto [0,1]; ok is false if the range is zero.
func normalize(vs []float64) ([]float64, bool) {
	lo, hi := stats.Min(vs), stats.Max(vs)
	span := hi - lo
	if span == 0 {
		return nil, false
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = (v - lo) / span
	}
	return out, true
}

func argmax(vs []float64) int {
	best := 0
	for i, v := range vs {
		if v > vs[best] {
			best = i
		}
	}
	return best
}
