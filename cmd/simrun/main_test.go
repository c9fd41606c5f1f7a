package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sora/internal/compare"
	"sora/internal/scenario"
	"sora/internal/sim"
)

// TestSimrunMatchesSentinel runs simrun's own flag path at the
// regression sentinel's seed and length (seed 5, 90 s) and requires the
// sentinel's pinned p99 and good fraction exactly, computed as the
// sentinel does: 10 s warm-up, outcomes against the 400 ms SLA. simrun
// and the chaos experiment build one scenario; if their wiring drifts
// apart, the simulated outputs move and this test fails.
func TestSimrunMatchesSentinel(t *testing.T) {
	if testing.Short() {
		t.Skip("three 90 s simulations")
	}
	base, err := compare.LoadBaseline("../../BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]float64{}
	for _, e := range base.Entries {
		pinned[e.Name] = e.Value
	}
	const common = "-seed 5 -duration 90s -fault-plan combo"
	for _, tc := range []struct{ args, prefix string }{
		{"-app sockshop -mix cart -users 900 -cart-threads 10 -strategy autoscaler", "chaos/sockshop_autoscaler/"},
		{"-app sockshop -mix cart -users 900 -cart-threads 10 -strategy sora", "chaos/sockshop_Sora/"},
		{"-app socialnetwork -mix timeline -users 1500 -ps-conns 15 -strategy sora", "chaos/socialnet_Sora/"},
	} {
		r, err := simulate(strings.Fields(tc.args+" "+common), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		warm, end := sim.Time(10*time.Second), sim.Time(90*time.Second)
		p99, err := r.E2E.Percentile(99, warm, end)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		good, degraded, violated := r.E2E.CountsByOutcome(warm, end, scenario.SLA)
		got := map[string]float64{
			"p99_ms":    p99.Seconds() * 1000,
			"good_frac": float64(good) / float64(good+degraded+violated),
		}
		for _, metric := range []string{"p99_ms", "good_frac"} {
			want, ok := pinned[tc.prefix+metric]
			if !ok {
				t.Fatalf("BASELINE.json has no %s%s", tc.prefix, metric)
			}
			if got[metric] != want {
				t.Errorf("%s: %s = %v, BASELINE.json pins %v", tc.args, metric, got[metric], want)
			}
		}
	}
}

// TestManifestOutsideArtifactRefused: a manifest names its artifacts
// by paths inside its own directory, so simrun refuses an artifact
// outside it before the run starts and writes nothing.
func TestManifestOutsideArtifactRefused(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-duration", "1s",
		"-manifest", filepath.Join(dir, "run", "r.manifest.json"),
		"-timeline", filepath.Join(dir, "r.timeline.jsonl")}
	if _, err := simulate(args, io.Discard); err == nil || !strings.Contains(err.Error(), "outside the manifest directory") {
		t.Fatalf("err = %v, want the timeline refused", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("a refused run wrote %d entries", len(ents))
	}
}
