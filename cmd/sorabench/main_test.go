package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sora/internal/compare"
)

// TestDocumentedLayoutManifestLoads runs the chaos recipe of
// EXPERIMENTS.md (timelines in a directory under the telemetry one) and
// loads the manifest it writes the way soradiff does, digests verified.
func TestDocumentedLayoutManifestLoads(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	err := run([]string{"-chaos", "combo", "-scale", "0.001", "-quiet",
		"-telemetry-dir", out, "-timeline", filepath.Join(out, "tl")})
	if err != nil {
		t.Fatal(err)
	}
	side, err := compare.LoadSide(compare.SideOptions{
		Path:   filepath.Join(out, "chaos_combo.manifest.json"),
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := side.Manifest.ArtifactBySuffix(".timeline.jsonl"); got != "tl/chaos_combo.timeline.jsonl" {
		t.Errorf("timeline artifact %q, want tl/chaos_combo.timeline.jsonl", got)
	}
	if len(side.Run.Units) == 0 {
		t.Error("the manifest's timeline holds no unit")
	}
}

// TestManifestDir checks where sorabench puts its manifests: in the
// directory that holds the other, and nowhere when the telemetry and
// timeline directories sit side by side — then the run is refused
// before it writes anything.
func TestManifestDir(t *testing.T) {
	for _, c := range []struct{ tel, tl, want string }{
		{"out", "", "out"},
		{"", "tl", "tl"},
		{"out", "out", "out"},
		{"out", "out/tl", "out"},
		{"out/tel", "out", "out"},
	} {
		got, err := manifestDir(c.tel, c.tl)
		if err != nil || got != c.want {
			t.Errorf("manifestDir(%q, %q) = %q, %v; want %q", c.tel, c.tl, got, err, c.want)
		}
	}

	dir := t.TempDir()
	err := run([]string{"-chaos", "combo", "-scale", "0.001",
		"-telemetry-dir", filepath.Join(dir, "tel"), "-timeline", filepath.Join(dir, "tl")})
	if err == nil || !strings.Contains(err.Error(), "one must hold the other") {
		t.Fatalf("side-by-side directories: err = %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("a refused run wrote %d entries", len(ents))
	}
}
