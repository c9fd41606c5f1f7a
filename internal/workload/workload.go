// Package workload provides the request-arrival machinery: a closed
// population of users with think time (ClosedLoop), and synthetic
// re-creations of the six real-world bursty workload traces the Sora paper evaluates
// with (from Gandhi et al., "AutoScale", TOCS 2012): Large Variation,
// Quick Varying, Slowly Varying, Big Spike, Dual Phase and Steep Tri
// Phase.
//
// The original traces are hour-scale datacenter demand curves; the paper
// replays them compressed to 12-minute runs. Here each trace is encoded
// as a normalized piecewise-linear intensity profile (time fraction ->
// intensity in [0,1]) that is stretched to the experiment duration and
// scaled to a peak request rate. Only the burst *shape* matters for the
// evaluation, which the profiles reproduce: amplitude, spike steepness
// and phase structure.
package workload

import "sort"

// TracePoint is one control point of a normalized trace profile.
type TracePoint struct {
	Frac      float64 // position in [0,1] of the experiment duration
	Intensity float64 // demand in [0,1] of the peak rate
}

// Trace is a named, normalized workload-intensity profile.
type Trace struct {
	Name   string
	Points []TracePoint
}

// Intensity returns the linearly interpolated intensity at time fraction
// f (clamped to [0,1]).
func (tr Trace) Intensity(f float64) float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	if f <= tr.Points[0].Frac {
		return tr.Points[0].Intensity
	}
	last := tr.Points[len(tr.Points)-1]
	if f >= last.Frac {
		return last.Intensity
	}
	i := sort.Search(len(tr.Points), func(i int) bool { return tr.Points[i].Frac >= f })
	a, b := tr.Points[i-1], tr.Points[i]
	span := b.Frac - a.Frac
	if span == 0 {
		return b.Intensity
	}
	w := (f - a.Frac) / span
	return float64(a.Intensity*(1-w)) + float64(b.Intensity*w)
}
