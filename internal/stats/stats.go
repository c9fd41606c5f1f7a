// Package stats provides the statistical primitives the SCG model and the
// experiment harness rely on: summary statistics, Pearson correlation,
// MAPE, percentiles and least-squares polynomial fitting. Everything is
// implemented on float64 slices with explicit error returns for degenerate
// inputs.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Errors returned for degenerate inputs.
var (
	ErrEmpty          = errors.New("stats: empty input")
	ErrLengthMismatch = errors.New("stats: input lengths differ")
	ErrDegenerate     = errors.New("stats: zero variance input")
)

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples (x_i, y_i). It errors on length mismatch, fewer than two pairs,
// or zero variance in either input (the coefficient is undefined there —
// the SCG critical-service localizer treats that as "no signal").
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("pearson: %w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("pearson: %w", ErrEmpty)
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("pearson: %w", ErrDegenerate)
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MAPE returns the mean absolute percentage error of predicted against
// actual, in percent (e.g. 5.83 for 5.83%). Zero actual values are
// skipped; if every actual is zero it returns an error.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("mape: %w: %d vs %d", ErrLengthMismatch, len(actual), len(predicted))
	}
	if len(actual) == 0 {
		return 0, fmt.Errorf("mape: %w", ErrEmpty)
	}
	var sum float64
	n := 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((actual[i] - predicted[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("mape: %w: all actuals zero", ErrDegenerate)
	}
	return sum / float64(n) * 100, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	return PercentileInPlace(slices.Clone(xs), p)
}

// PercentileInPlace is Percentile for a caller that owns xs and has no
// further use for its order: it reorders xs in place instead of a copy.
// It selects the two closest ranks rather than sorting, in
// sort.Float64s' order (NaN before every number), so it returns the
// value a sort would give, bit for bit; only values that order holds
// equal (two NaNs, or −0 and +0) may trade places, as they may in a
// sort.
func PercentileInPlace(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile: %w", ErrEmpty)
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("percentile: p=%g out of [0,100]", p)
	}
	// Exact boundaries: p=0 and p=100 are the min and max by definition
	// and must not go through interpolation arithmetic.
	if p == 0 || len(xs) == 1 {
		return extreme(xs, false), nil
	}
	if p == 100 {
		return extreme(xs, true), nil
	}
	rank := float64(p / 100 * float64(len(xs)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// Guard against float rounding pushing the rank out of range (p just
	// below 100 can round rank up to exactly len-1).
	if hi > len(xs)-1 {
		hi = len(xs) - 1
	}
	if lo > hi {
		lo = hi
	}
	selectRank(xs, lo)
	if lo == hi {
		return xs[lo], nil
	}
	// Every value after rank lo is ordered no earlier than it, so rank
	// hi = lo+1 is the first of them in the order.
	next := extreme(xs[hi:], false)
	frac := rank - float64(lo)
	return float64(xs[lo]*(1-frac)) + float64(next*frac), nil
}

// before is sort.Float64s' order: a NaN before every number, numbers
// ascending.
func before(a, b float64) bool { return a < b || (a != a && b == b) }

// extreme returns the first value of xs in sort.Float64s' order, or the
// last if last is set.
func extreme(xs []float64, last bool) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if last && before(m, x) || !last && before(x, m) {
			m = x
		}
	}
	return m
}

// selectRank reorders xs so that xs[k] holds the value sort.Float64s
// would put there, with every value before it ordered no later and every
// value after it no earlier. It partitions around a median-of-three
// pivot, narrowing to the side that holds k; after 2·log2(n) rounds it
// sorts what is left, so it never takes longer than a sort.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); hi > lo; rounds-- {
		if rounds == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := int(uint(lo+hi) >> 1)
		if before(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if before(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if before(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for before(xs[i], pivot) {
				i++
			}
			for before(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] are ordered no later than the pivot, xs[i..hi]
		// no earlier, and any value between is the pivot's equal.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
//
//soravet:allow deadcode (b) cross-package fixture: knee tests build their synthetic curves with it
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(float64(i)*step)
	}
	out[n-1] = hi
	return out
}

// MovingAverage returns the centered moving average of xs with the given
// window (clamped at the edges). Window must be >= 1; even windows are
// rounded up to the next odd value for symmetry.
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make([]float64, len(xs))
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Poly is a polynomial c0 + c1 x + c2 x^2 + ... fitted by PolyFit.
type Poly struct {
	Coeffs []float64
}

// Eval evaluates the polynomial at x using Horner's method.
func (p Poly) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = float64(y*x) + p.Coeffs[i]
	}
	return y
}

// PolyFit fits a least-squares polynomial of the given degree to the
// points (x_i, y_i) by solving the normal equations with partial-pivot
// Gaussian elimination. The inputs are internally normalised to [0,1] to
// keep the Vandermonde system well conditioned at degrees up to ~10 —
// the SCG estimator uses degrees 5-8 per the paper's sensitivity analysis.
func PolyFit(x, y []float64, degree int) (Poly, error) {
	if len(x) != len(y) {
		return Poly{}, fmt.Errorf("polyfit: %w: %d vs %d", ErrLengthMismatch, len(x), len(y))
	}
	if degree < 0 {
		return Poly{}, fmt.Errorf("polyfit: negative degree %d", degree)
	}
	if len(x) < degree+1 {
		return Poly{}, fmt.Errorf("polyfit: need at least %d points for degree %d, have %d", degree+1, degree, len(x))
	}

	// Normalise x to [0,1] for conditioning, then de-normalise coefficients.
	xmin, xmax := Min(x), Max(x)
	span := xmax - xmin
	if span == 0 {
		// All x identical: degree-0 fit on the mean is the only answer.
		if degree > 0 {
			return Poly{}, fmt.Errorf("polyfit: %w: all x identical", ErrDegenerate)
		}
		return Poly{Coeffs: []float64{Mean(y)}}, nil
	}
	xn := make([]float64, len(x))
	for i, v := range x {
		xn[i] = (v - xmin) / span
	}

	n := degree + 1
	// Normal equations: (V^T V) c = V^T y with V the Vandermonde matrix.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	// Precompute power sums S_k = sum x^k up to 2*degree and moment sums.
	powSums := make([]float64, 2*degree+1)
	for _, v := range xn {
		p := 1.0
		for k := 0; k <= 2*degree; k++ {
			powSums[k] += p
			p *= v
		}
	}
	moments := make([]float64, n)
	for i, v := range xn {
		p := 1.0
		for k := 0; k < n; k++ {
			moments[k] += float64(p * y[i])
			p *= v
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = powSums[i+j]
		}
		a[i][n] = moments[i]
	}

	coeffs, err := solveGaussian(a)
	if err != nil {
		return Poly{}, fmt.Errorf("polyfit: %w", err)
	}

	// De-normalise: p(x) = q((x - xmin)/span). Expand via binomial theorem.
	out := make([]float64, n)
	for k, ck := range coeffs {
		// ck * ((x - xmin)/span)^k
		scale := ck / math.Pow(span, float64(k))
		// (x - xmin)^k = sum_j C(k,j) x^j (-xmin)^(k-j)
		for j := 0; j <= k; j++ {
			out[j] += float64(scale * binomial(k, j) * math.Pow(-xmin, float64(k-j)))
		}
	}
	return Poly{Coeffs: out}, nil
}

// FitRMSE returns the root-mean-square error of the polynomial against
// the points.
func FitRMSE(p Poly, x, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for i := range x {
		d := p.Eval(x[i]) - y[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(x)))
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// solveGaussian solves the augmented system a (n x n+1) in place with
// partial pivoting.
func solveGaussian(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot selection.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d: %w", col, ErrDegenerate)
		}
		a[col], a[pivot] = a[pivot], a[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for j := i + 1; j < n; j++ {
			sum -= float64(a[i][j] * x[j])
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}
