package experiment

import (
	"strings"
	"testing"
	"time"

	"sora/internal/profile"
)

// renderProfile serializes an aggregator's blame table and folded stacks
// into one string for byte-level comparison.
func renderProfile(t *testing.T, agg *profile.Aggregator) string {
	t.Helper()
	p := agg.Snapshot()
	var sb strings.Builder
	if err := p.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("\n--- folded ---\n")
	if err := profile.WriteFolded(&sb, p); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestProfileArtifactEquivalence is the latency-attribution form of the
// serial/parallel guardrail: one shared Aggregator collects blame from
// every sweep point, and the rendered table + folded stacks must be
// byte-identical whether the points ran on one worker or four. This is
// the package-level enforcement of the `sorabench -parallel 1` vs
// `-parallel N` acceptance criterion for <id>.profile.txt/<id>.folded.
// Runs under -short and therefore under the -race gate of verify.sh.
func TestProfileArtifactEquivalence(t *testing.T) {
	sizes := []int{3, 10, 30}
	thresholds := []time.Duration{fig3LooseRTT}
	run := func(parallelism int) string {
		t.Helper()
		agg := profile.NewAggregator(100 * time.Millisecond)
		p := Params{Seed: 7, DurationScale: 0.001, Quiet: true, Parallelism: parallelism, Profile: agg}
		if _, err := runSweep(p, cartSweep(2, 200), sizes, thresholds, "cart"); err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return renderProfile(t, agg)
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("profile artifacts differ between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	// The profile must actually carry data: blame rows for the cart path
	// and folded stacks ending in a phase leaf.
	for _, want := range []string{"front-end", "cart", ";queue ", "SLO"} {
		if !strings.Contains(serial, want) {
			t.Errorf("profile artifacts missing %q", want)
		}
	}
}
