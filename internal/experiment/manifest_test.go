package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sora/internal/compare"
	"sora/internal/telemetry"
)

// TestChaosManifestEquivalence extends the serial-vs-parallel
// equivalence suite to the run-manifest layer: the same (seed, config)
// chaos run produced with parallelism 1 and 4 must write byte-identical
// artifacts — and therefore a byte-identical manifest, digests and
// closing counters included. This is the invariant that makes manifest
// digests meaningful as run fingerprints.
func TestChaosManifestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("manifest equivalence runs twelve minimum-length simulations; skipped in -short")
	}
	build := func(parallelism int) ([]byte, string) {
		rec := telemetry.NewRecorder("chaos-test")
		p := Params{
			Seed: 5, DurationScale: 0.001, Quiet: true,
			Parallelism: parallelism, Telemetry: rec, Timeline: time.Second,
		}
		var sb strings.Builder
		if err := RunChaos(p, &sb, "clamp"); err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		dir := t.TempDir()
		if err := rec.WriteFiles(dir, "chaos-test"); err != nil {
			t.Fatal(err)
		}
		var tl strings.Builder
		if err := rec.WriteTimeline(&tl); err != nil {
			t.Fatal(err)
		}
		tlPath := filepath.Join(dir, "chaos-test.timeline.jsonl")
		if err := os.WriteFile(tlPath, []byte(tl.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := compare.BuildManifest(dir, "chaos-test", "sorabench", int64(p.Seed),
			[]compare.KV{compare.Str("exp", "chaos"), compare.Str("plan", "clamp")},
			compare.ManifestCounters(rec),
			[]string{
				"chaos-test.events.jsonl", "chaos-test.metrics.prom",
				"chaos-test.trace.json", "chaos-test.timeline.jsonl",
			})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := compare.EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return enc, tl.String()
	}
	serialMan, serialTL := build(1)
	parallelMan, _ := build(4)
	if string(serialMan) != string(parallelMan) {
		a, b := diffLine(string(serialMan), string(parallelMan))
		t.Fatalf("manifest differs between serial and parallel runs:\nserial:   %s\nparallel: %s", a, b)
	}
	// The manifest must carry real content: four digested artifacts and
	// at least one closing counter.
	m, err := compare.ParseTimeline("tl", serialTL)
	if err != nil {
		t.Fatal(err)
	}
	var decoded compare.Manifest
	if err := json.Unmarshal(serialMan, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Artifacts) != 4 || len(decoded.Counters) == 0 {
		t.Fatalf("manifest artifacts %d, counters %d; want 4 and >0",
			len(decoded.Artifacts), len(decoded.Counters))
	}
	// Every chaos unit published its run.manifest identity record.
	units := 0
	for _, u := range m.Units {
		if len(u.Identity) > 0 {
			units++
		}
	}
	if units != 6 {
		t.Fatalf("%d units carry run.manifest identity, want 6", units)
	}
}
