package compare

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sora/internal/telemetry"
)

// TestParseManifestRejectsNonLocalArtifacts: Verify and LoadSide join
// artifact names onto the manifest's directory, so a name that is
// empty, absolute or climbs out with ".." is refused before either
// reads a file, and a name inside the directory is kept.
func TestParseManifestRejectsNonLocalArtifacts(t *testing.T) {
	manifest := func(name string) []byte {
		return []byte(`{"schema": "sora-manifest/v1", "id": "r", "tool": "simrun", "seed": 1, "params": [], "counters": [],
			"artifacts": [{"name": "r.timeline.jsonl", "bytes": 0, "digest": "x"}, {"name": "` + name + `", "bytes": 0, "digest": "x"}]}`)
	}
	for _, name := range []string{"", "/etc/passwd", "../r.timeline.jsonl", "tel/../../secret", ".."} {
		if _, err := ParseManifest(manifest(name)); err == nil || !strings.Contains(err.Error(), "not a path inside") {
			t.Errorf("artifact %q: err = %v, want a refusal", name, err)
		}
	}
	for _, name := range []string{"tel/r.metrics.prom", "r.folded", "a/./b"} {
		if _, err := ParseManifest(manifest(name)); err != nil {
			t.Errorf("artifact %q: %v", name, err)
		}
	}
}

// TestLoadSideRefusesEscapingManifest: even without digest checks, a
// manifest naming a timeline outside its directory is refused, so
// soradiff never opens that file.
func TestLoadSideRefusesEscapingManifest(t *testing.T) {
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run")
	if err := os.Mkdir(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := `{"schema": "sora-manifest/v1", "id": "r", "tool": "simrun", "seed": 1, "params": [], "counters": [],
		"artifacts": [{"name": "../outside.timeline.jsonl", "bytes": 0, "digest": "x"}]}`
	path := filepath.Join(runDir, "r.manifest.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSide(SideOptions{Path: path}); err == nil || !strings.Contains(err.Error(), "not a path inside") {
		t.Fatalf("LoadSide: err = %v, want the escaping artifact refused", err)
	}
}

// TestBuildManifestNamesOnlyLocalArtifacts: the writer side of the
// same rule. A file inside the directory gets its relative name, and a
// manifest that would have to name a file outside it is not built, so
// no tool writes a manifest ParseManifest refuses.
func TestBuildManifestNamesOnlyLocalArtifacts(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "run")
	for _, f := range []string{filepath.Join(run, "tl", "r.timeline.jsonl"), filepath.Join(dir, "outside.folded")} {
		if err := os.MkdirAll(filepath.Dir(f), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := BuildManifest(run, "r", "simrun", 1, nil, nil, []string{filepath.Join(run, "tl", "r.timeline.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParseManifest(enc); err != nil || back.Artifacts[0].Name != "tl/r.timeline.jsonl" {
		t.Errorf("round trip: %v, %v", back, err)
	}
	for _, f := range []string{filepath.Join(dir, "outside.folded"), "../outside.folded"} {
		if _, err := BuildManifest(run, "r", "simrun", 1, nil, nil, []string{f}); err == nil || !strings.Contains(err.Error(), "outside the manifest directory") {
			t.Errorf("artifact %s: err = %v, want a refusal", f, err)
		}
	}
}

// FuzzParseManifest: decoding never panics, and an accepted manifest
// survives EncodeManifest's encoding unchanged.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseManifest(raw)
		if err != nil {
			return
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("encode accepted manifest: %v", err)
		}
		again, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", enc, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, again)
		}
		if enc2, _ := EncodeManifest(again); !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not stable")
		}
	})
}

// TestManifestCountersDropBuckets: a manifest carries the recorder's
// closing totals in walk order, without the histogram buckets the
// .metrics.prom artifact already holds.
func TestManifestCountersDropBuckets(t *testing.T) {
	rec := telemetry.NewRecorder("run")
	rec.AddCounter("sora_requests_total", 3)
	rec.AddCounter(`sora_phase_ms_bucket{service="a",phase="cpu",le="1"}`, 2)
	rec.AddCounter("sora_phase_ms_count", 2)
	got := ManifestCounters(rec)
	want := []KV{Num("sora_requests_total", 3), Num("sora_phase_ms_count", 2)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ManifestCounters = %v, want %v", got, want)
	}
}
