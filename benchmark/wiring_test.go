package main

import (
	"testing"
	"time"

	"sora/internal/compare"
)

// TestWiringMatchesSentinel replays the chaos and ctrlplane workloads at
// the regression sentinel's seed and length (seed 5, 90 s) and requires
// the sentinel's pinned p99 and completion-only good fraction exactly: if
// the benchmark's wiring drifts from what the experiments ship, the
// simulated outputs move and this test fails.
func TestWiringMatchesSentinel(t *testing.T) {
	base, err := compare.LoadBaseline("../BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]float64{}
	for _, e := range base.Entries {
		pinned[e.Name] = e.Value
	}
	const dur = 90 * time.Second
	for _, tc := range []struct{ workload, prefix string }{
		{"chaos", "chaos/sockshop_Sora/"},
		{"ctrlplane", "ctrlplane/fast_Sora/"},
	} {
		sc, _ := scenarioByName(tc.workload)
		r, err := sc.build(5, dur)
		if err != nil {
			t.Fatal(err)
		}
		st := r.execute(dur, sc.warm, nil)
		if why := st.check(0); why != "" {
			t.Fatalf("%s: %s", tc.workload, why)
		}
		good, degraded, violated := r.e2e.CountsByOutcome(r.warm, r.end, goodputSLA)
		got := map[string]float64{
			"p99_ms":    st.p99.Seconds() * 1000,
			"good_frac": float64(good) / float64(good+degraded+violated),
		}
		for _, metric := range []string{"p99_ms", "good_frac"} {
			want, ok := pinned[tc.prefix+metric]
			if !ok {
				t.Fatalf("BASELINE.json has no %s%s", tc.prefix, metric)
			}
			if got[metric] != want {
				t.Errorf("%s %s = %v, BASELINE.json pins %v", tc.workload, metric, got[metric], want)
			}
		}
	}
}
