package stats

import (
	"fmt"
	"math"
)

// This file implements the streaming quantile sketch behind the flight
// recorder and (per ROADMAP item 4) the future sharded trace warehouse.
//
// The sketch is a DDSketch-style logarithmically bucketed histogram
// rather than a P² marker sketch: P² has fixed state but is neither
// mergeable nor error-bounded, and both properties are load-bearing
// here — per-service sketches merge into cluster-wide rows, per-shard
// sketches will merge into warehouse totals, and the property suite in
// sketch_test.go pins the estimate against the exact sorted-slice
// Percentile (which stays around precisely to serve as the oracle).
//
// Design constraints, in order:
//
//   - Deterministic: bucket indices come from float64 math on the value
//     alone, counts are integers, and merges are integer adds, so any
//     merge order — serial, parallel, tree-shaped — produces identical
//     state and therefore byte-identical downstream artifacts.
//   - Fixed-size, zero steady-state allocations: the bucket array is
//     allocated once by NewSketch; Observe touches one array slot and a
//     handful of scalar fields. TestSketchObserveAllocFree pins this.
//   - Error-bounded: for values in [SketchMinValue, SketchMaxValue],
//     Quantile returns an estimate within relative error alpha of the
//     exact value at the queried rank (see Quantile for the precise
//     statement).
type Sketch struct {
	alpha    float64
	gamma    float64
	invLnG   float64 // 1 / ln(gamma), precomputed for Observe
	keyMin   int     // bucket key of SketchMinValue
	buckets  []uint64
	count    uint64
	min, max float64
}

// DefaultSketchAlpha is the relative-error target used when NewSketch
// is given a non-positive alpha: one percent, which keeps a full-range
// sketch under 2k buckets (~14 KiB) — cheap enough for one sketch per
// service per flight-recorder window.
const DefaultSketchAlpha = 0.01

// SketchMinValue and SketchMaxValue bound the indexable range. The
// units are whatever the caller observes; the flight recorder feeds
// milliseconds, so the range spans one nanosecond to ~11.5 days of
// latency. Values below the minimum are clamped up (absolute error at
// most SketchMinValue), values above the maximum are clamped down.
const (
	SketchMinValue = 1e-6
	SketchMaxValue = 1e9
)

// NewSketch returns an empty sketch targeting the given relative error
// alpha in (0, 1); non-positive alpha selects DefaultSketchAlpha. This
// is the only allocation the sketch ever performs.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha >= 1 {
		alpha = 0.5
	}
	gamma := (1 + alpha) / (1 - alpha)
	lnG := math.Log(gamma)
	keyMin := int(math.Ceil(math.Log(SketchMinValue) / lnG))
	keyMax := int(math.Ceil(math.Log(SketchMaxValue) / lnG))
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		invLnG:  1 / lnG,
		keyMin:  keyMin,
		buckets: make([]uint64, keyMax-keyMin+1),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Count returns the number of observed values.
func (s *Sketch) Count() uint64 { return s.count }

// Observe records one value. NaN is ignored; values outside
// [SketchMinValue, SketchMaxValue] are clamped to the range boundary
// (so negative and zero values register as SketchMinValue). Observe
// never allocates.
//
//soravet:hotpath BenchmarkSketchObserve AllocsPerRun pin: the flight recorder calls Observe once per completed request
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < SketchMinValue {
		v = SketchMinValue
	} else if v > SketchMaxValue {
		v = SketchMaxValue
	}
	idx := int(math.Ceil(math.Log(v)*s.invLnG)) - s.keyMin
	if idx < 0 {
		idx = 0
	} else if idx >= len(s.buckets) {
		idx = len(s.buckets) - 1
	}
	s.buckets[idx]++
	s.count++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// Reset empties the sketch in place, retaining its bucket array.
func (s *Sketch) Reset() {
	for i := range s.buckets {
		s.buckets[i] = 0
	}
	s.count = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Merge folds o into s. Both sketches must have been constructed with
// the same alpha (and therefore the same gamma, key origin and bucket
// layout); merging is an integer bucket-wise add, so it is exactly
// associative and commutative — any merge tree over the same multiset
// of observations yields identical sketch state. Merging sketches with
// mismatched bucket configuration is an explicit error, never a silent
// bucket-array add: equal-width arrays from different gammas would
// attribute every count to the wrong value range. A nil or empty o is
// a no-op.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if o.alpha != s.alpha || o.gamma != s.gamma || o.keyMin != s.keyMin || len(o.buckets) != len(s.buckets) {
		return fmt.Errorf("stats: merge of incompatible sketches (alpha %g/gamma %g/%d buckets from key %d vs alpha %g/gamma %g/%d buckets from key %d)",
			s.alpha, s.gamma, len(s.buckets), s.keyMin, o.alpha, o.gamma, len(o.buckets), o.keyMin)
	}
	for i, c := range o.buckets {
		s.buckets[i] += c
	}
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	return nil
}

// Quantile returns an estimate of the p-th percentile (0 <= p <= 100)
// of the observed values. It mirrors the rank convention of the exact
// Percentile oracle: the estimate targets the value at sorted index
// floor(p/100 · (n−1)). For observations within the indexable range the
// estimate x̂ of an exact rank value x satisfies |x̂ − x| <= alpha · x;
// p = 0 and p = 100 return the exact observed min and max. It errors
// only on an empty sketch.
func (s *Sketch) Quantile(p float64) (float64, error) {
	if s.count == 0 {
		return 0, fmt.Errorf("sketch quantile: %w", ErrEmpty)
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("sketch quantile: p=%g out of [0,100]", p)
	}
	if p == 0 {
		return s.min, nil
	}
	if p == 100 {
		return s.max, nil
	}
	rank := uint64(p / 100 * float64(s.count-1))
	var cum uint64
	for i, c := range s.buckets {
		cum += c
		if cum > rank {
			// Every value in bucket i lies in (gamma^(k-1), gamma^k];
			// 2·gamma^k/(gamma+1) is within alpha relative error of any
			// point in that interval. Clamp by the exact extremes so the
			// estimate never leaves the observed range.
			key := float64(s.keyMin + i)
			est := 2 * math.Pow(s.gamma, key) / (s.gamma + 1)
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est, nil
		}
	}
	// Unreachable: cum == count > rank by construction.
	return s.max, nil
}

// QuantileOr returns Quantile(p), or fallback when the sketch is empty
// (the flight recorder publishes 0 for windows with no completions).
func (s *Sketch) QuantileOr(p, fallback float64) float64 {
	v, err := s.Quantile(p)
	if err != nil {
		return fallback
	}
	return v
}
