package workload

import "fmt"

// Names of the six real-world bursty workload traces used in the paper's
// evaluation (Table 2, Table 3; originally from Gandhi et al., AutoScale).
const (
	TraceLargeVariation = "large_variation"
	TraceQuickVarying   = "quick_varying"
	TraceSlowlyVarying  = "slowly_varying"
	TraceBigSpike       = "big_spike"
	TraceDualPhase      = "dual_phase"
	TraceSteepTriPhase  = "steep_tri_phase"
)

// LargeVariationTrace returns the "Large Variation" profile: repeated
// wide swings between roughly a third of peak demand and full peak, with
// the two major overload phases (around 25-36% and 69-79% of the run)
// that produce the response-time spikes in Figure 11.
func LargeVariationTrace() Trace {
	return Trace{
		Name: TraceLargeVariation,
		Points: []TracePoint{
			{0.00, 0.40}, {0.06, 0.62}, {0.10, 0.48}, {0.16, 0.70},
			{0.22, 0.52}, {0.25, 0.95}, {0.30, 1.00}, {0.36, 0.92},
			{0.40, 0.50}, {0.46, 0.66}, {0.52, 0.44}, {0.58, 0.72},
			{0.64, 0.50}, {0.69, 0.96}, {0.74, 1.00}, {0.79, 0.90},
			{0.84, 0.48}, {0.90, 0.62}, {0.95, 0.45}, {1.00, 0.40},
		},
	}
}

// QuickVaryingTrace returns the "Quick Varying" profile: rapid sawtooth
// oscillation between moderate and high demand, stressing how fast the
// adaptation loop converges.
func QuickVaryingTrace() Trace {
	pts := []TracePoint{{0, 0.35}}
	// Eight fast cycles between 0.35 and alternating peaks.
	peaks := []float64{0.85, 0.95, 0.80, 1.00, 0.90, 0.85, 1.00, 0.88}
	for i, p := range peaks {
		base := float64(i) / float64(len(peaks))
		width := 1.0 / float64(len(peaks))
		pts = append(pts,
			TracePoint{base + 0.35*width, p},
			TracePoint{base + 0.75*width, 0.38},
		)
	}
	pts = append(pts, TracePoint{1, 0.35})
	return Trace{Name: TraceQuickVarying, Points: pts}
}

// SlowlyVaryingTrace returns the "Slowly Varying" profile: a gentle
// diurnal-style rise to peak and decline.
func SlowlyVaryingTrace() Trace {
	return Trace{
		Name: TraceSlowlyVarying,
		Points: []TracePoint{
			{0.00, 0.30}, {0.15, 0.45}, {0.30, 0.68}, {0.45, 0.88},
			{0.55, 1.00}, {0.65, 0.92}, {0.80, 0.70}, {0.90, 0.50},
			{1.00, 0.38},
		},
	}
}

// BigSpikeTrace returns the "Big Spike" profile: a steady baseline with a
// single abrupt flash-crowd spike to peak demand near mid-run.
func BigSpikeTrace() Trace {
	return Trace{
		Name: TraceBigSpike,
		Points: []TracePoint{
			{0.00, 0.35}, {0.44, 0.36}, {0.47, 0.55}, {0.50, 1.00},
			{0.54, 1.00}, {0.57, 0.50}, {0.60, 0.36}, {1.00, 0.35},
		},
	}
}

// DualPhaseTrace returns the "Dual Phase" profile: a sustained low-demand
// phase followed by a sustained high-demand phase, the canonical test for
// scale-out-then-readapt behaviour.
func DualPhaseTrace() Trace {
	return Trace{
		Name: TraceDualPhase,
		Points: []TracePoint{
			{0.00, 0.38}, {0.42, 0.42}, {0.48, 0.70}, {0.52, 0.95},
			{0.58, 1.00}, {0.88, 0.92}, {0.95, 0.60}, {1.00, 0.45},
		},
	}
}

// SteepTriPhaseTrace returns the "Steep Tri Phase" profile: three demand
// phases separated by steep ramps, producing the two temporary-overload
// windows (roughly 270-410 s and 480-610 s of a 12-minute run) visible in
// Figure 10 of the paper.
func SteepTriPhaseTrace() Trace {
	return Trace{
		Name: TraceSteepTriPhase,
		Points: []TracePoint{
			{0.00, 0.32}, {0.33, 0.34}, // phase 1: light
			{0.37, 0.95}, {0.43, 1.00}, {0.52, 0.96}, // phase 2: steep overload
			{0.57, 0.55}, {0.63, 0.52}, // brief relief
			{0.67, 0.98}, {0.78, 1.00}, {0.83, 0.90}, // phase 3: second overload
			{0.88, 0.45}, {1.00, 0.34},
		},
	}
}

// Traces returns all six bursty workload traces in the order the paper's
// tables list them.
func Traces() []Trace {
	return []Trace{
		LargeVariationTrace(),
		QuickVaryingTrace(),
		SlowlyVaryingTrace(),
		BigSpikeTrace(),
		DualPhaseTrace(),
		SteepTriPhaseTrace(),
	}
}

// TraceByName returns the named trace.
func TraceByName(name string) (Trace, error) {
	for _, tr := range Traces() {
		if tr.Name == name {
			return tr, nil
		}
	}
	return Trace{}, fmt.Errorf("workload: unknown trace %q", name)
}
