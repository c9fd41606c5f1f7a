package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTraceIntensityInterpolation(t *testing.T) {
	tr := Trace{Name: "test", Points: []TracePoint{{0, 0}, {0.5, 1}, {1, 0}}}
	for _, tt := range []struct{ f, want float64 }{
		{-1, 0}, {0, 0}, {0.25, 0.5}, {0.5, 1}, {0.75, 0.5}, {1, 0}, {2, 0},
	} {
		if got := tr.Intensity(tt.f); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Intensity(%g) = %g, want %g", tt.f, got, tt.want)
		}
	}
}

func TestTraceIntensityDuplicateFrac(t *testing.T) {
	tr := Trace{Name: "step", Points: []TracePoint{{0, 0.2}, {0.5, 0.2}, {0.5, 0.9}, {1, 0.9}}}
	if got := tr.Intensity(0.25); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("before step = %g, want 0.2", got)
	}
	if got := tr.Intensity(0.75); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("after step = %g, want 0.9", got)
	}
}

func TestAllSixTracesValid(t *testing.T) {
	traces := Traces()
	if len(traces) != 6 {
		t.Fatalf("Traces() returned %d traces, want 6", len(traces))
	}
	wantNames := []string{
		TraceLargeVariation, TraceQuickVarying, TraceSlowlyVarying,
		TraceBigSpike, TraceDualPhase, TraceSteepTriPhase,
	}
	for i, tr := range traces {
		if tr.Name != wantNames[i] {
			t.Errorf("trace %d = %q, want %q", i, tr.Name, wantNames[i])
		}
		if len(tr.Points) == 0 {
			t.Errorf("trace %q has no points", tr.Name)
		}
		prev := -1.0
		for i, p := range tr.Points {
			if p.Frac < 0 || p.Frac < prev || p.Frac > 1 || p.Intensity < 0 || p.Intensity > 1 {
				t.Errorf("trace %q point %d = %+v: fractions must rise within [0,1], intensities lie in [0,1]", tr.Name, i, p)
			}
			prev = p.Frac
		}
		// Every trace must actually reach (near) peak somewhere.
		maxI := 0.0
		for f := 0.0; f <= 1.0; f += 0.001 {
			if v := tr.Intensity(f); v > maxI {
				maxI = v
			}
		}
		if maxI < 0.99 {
			t.Errorf("trace %q peak intensity %g, want ~1.0", tr.Name, maxI)
		}
	}
}

func TestTraceByName(t *testing.T) {
	tr, err := TraceByName(TraceBigSpike)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != TraceBigSpike {
		t.Errorf("got %q", tr.Name)
	}
	if _, err := TraceByName("nope"); err == nil {
		t.Error("expected error for unknown trace")
	}
}

func TestBigSpikeShape(t *testing.T) {
	tr := BigSpikeTrace()
	base := tr.Intensity(0.2)
	peak := tr.Intensity(0.51)
	late := tr.Intensity(0.8)
	if peak < 2*base {
		t.Errorf("spike peak %g not prominent over baseline %g", peak, base)
	}
	if math.Abs(late-base) > 0.05 {
		t.Errorf("baseline not restored after spike: %g vs %g", late, base)
	}
}

func TestSteepTriPhaseHasTwoOverloadWindows(t *testing.T) {
	tr := SteepTriPhaseTrace()
	// Overload windows per Figure 10: ~269-412s and ~480-610s of 720s.
	if v := tr.Intensity(340.0 / 720); v < 0.9 {
		t.Errorf("first overload window intensity %g, want >= 0.9", v)
	}
	if v := tr.Intensity(550.0 / 720); v < 0.9 {
		t.Errorf("second overload window intensity %g, want >= 0.9", v)
	}
	if v := tr.Intensity(0.15); v > 0.5 {
		t.Errorf("light phase intensity %g, want < 0.5", v)
	}
	if v := tr.Intensity(0.61); v > 0.7 {
		t.Errorf("relief window intensity %g, want < 0.7", v)
	}
}

// Property: intensity is always within [0,1] for valid traces at any f.
func TestQuickIntensityBounded(t *testing.T) {
	traces := Traces()
	f := func(traceIdx uint8, fRaw uint16) bool {
		tr := traces[int(traceIdx)%len(traces)]
		fr := float64(fRaw)/65535*3 - 1 // range [-1, 2] to test clamping
		v := tr.Intensity(fr)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
