// Package compare is the cross-run comparison subsystem (DESIGN.md
// §15): run manifests that make every sorabench/simrun invocation
// self-describing, a loader/aligner that puts two runs' timeline
// artifacts side by side on virtual time, delta computation over
// quantiles, goodput splits, knob divergence and profiler phase blame,
// and the baseline schema behind the regression sentinel
// (scripts/regress.sh). cmd/soradiff is the CLI front end.
//
// Everything here is deterministic: manifests encode through ordered
// structs (never maps), digests are FNV-64a over artifact bytes, and
// reports render with fixed formatting — so a manifest or report is
// byte-identical regardless of whether the run that produced it was
// serial or parallel, and goldens can pin the output.
package compare

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ManifestSchema identifies the manifest encoding; bump on any
// incompatible change so old manifests fail loudly instead of
// misaligning.
const ManifestSchema = "sora-manifest/v1"

// KV is one ordered key/value pair. Manifests and reports use ordered
// slices of KV instead of maps so encoding/json sees a fixed order and
// artifacts stay byte-stable.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
	// Number marks a value the timeline reader decoded from a JSON
	// number; Value keeps the number's literal bytes. Not encoded.
	Number bool `json:"-"`
}

// Str returns a string-valued pair.
func Str(key, v string) KV { return KV{Key: key, Value: v} }

// Int returns an integer-valued pair.
func Int(key string, v int64) KV { return KV{Key: key, Value: strconv.FormatInt(v, 10)} }

// Num returns a float-valued pair, formatted exactly like the
// telemetry sinks format floats ('g', shortest round-trip) so counter
// values in manifests match the .metrics.prom artifact.
func Num(key string, v float64) KV {
	return KV{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Lookup returns the value of the first pair named key, and whether
// there is one.
func Lookup(kvs []KV, key string) (string, bool) {
	for _, kv := range kvs {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return "", false
}

// Artifact is one run output file recorded in the manifest: its name
// relative to the manifest's directory (slash-separated), size, and
// FNV-64a digest of its bytes.
type Artifact struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Digest string `json:"digest"`
}

// Manifest is the run's identity record: enough to tell whether two
// runs are comparable (same schema, seed, params) and to locate and
// integrity-check their artifacts. Parallelism is deliberately NOT a
// param: a run's manifest must be byte-identical between -parallel 1
// and -parallel N of the same seed, which is exactly what the
// equivalence suite pins.
type Manifest struct {
	Schema    string     `json:"schema"`
	ID        string     `json:"id"`
	Tool      string     `json:"tool"`
	Seed      int64      `json:"seed"`
	Params    []KV       `json:"params"`
	Counters  []KV       `json:"counters"`
	Artifacts []Artifact `json:"artifacts"`
}

// ArtifactBySuffix returns the name of the unique artifact whose name
// ends with suffix, or "" if none or ambiguous.
func (m *Manifest) ArtifactBySuffix(suffix string) string {
	found := ""
	for _, a := range m.Artifacts {
		if strings.HasSuffix(a.Name, suffix) {
			if found != "" {
				return ""
			}
			found = a.Name
		}
	}
	return found
}

// DigestBytes returns the FNV-64a digest of b as 16 hex digits. FNV is
// stdlib, fast, and stable across platforms — this is a fingerprint
// for change detection, not a cryptographic commitment.
func DigestBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ArtifactName returns the manifest name of the artifact at path
// (absolute, or relative to dir): its slash-separated path relative to
// dir. A path outside dir has no name, since ParseManifest refuses any
// name that is not filepath.IsLocal, so it is an error. Tools call it
// before a run to refuse an artifact layout no manifest can describe.
func ArtifactName(dir, path string) (string, error) {
	if !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	rel, err := filepath.Rel(dir, path)
	if err != nil || !filepath.IsLocal(rel) {
		return "", fmt.Errorf("compare: artifact %s lies outside the manifest directory %s", path, dir)
	}
	return filepath.ToSlash(rel), nil
}

// DigestFiles stats and digests the named files (paths relative to
// dir or absolute, inside dir) and returns artifact records sorted by
// name, where each name is the ArtifactName of the file.
func DigestFiles(dir string, files []string) ([]Artifact, error) {
	out := make([]Artifact, 0, len(files))
	for _, f := range files {
		name, err := ArtifactName(dir, f)
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(name)))
		if err != nil {
			return nil, fmt.Errorf("compare: digest %s: %w", f, err)
		}
		out = append(out, Artifact{
			Name:   name,
			Bytes:  int64(len(data)),
			Digest: DigestBytes(data),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// BuildManifest assembles a manifest for a finished run: params are
// sorted by key, counters keep the caller's (deterministic walk)
// order, and the named artifact files are digested relative to dir.
func BuildManifest(dir, id, tool string, seed int64, params, counters []KV, files []string) (*Manifest, error) {
	sorted := make([]KV, len(params))
	copy(sorted, params)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	arts, err := DigestFiles(dir, files)
	if err != nil {
		return nil, err
	}
	return &Manifest{
		Schema:    ManifestSchema,
		ID:        id,
		Tool:      tool,
		Seed:      seed,
		Params:    sorted,
		Counters:  counters,
		Artifacts: arts,
	}, nil
}

// EncodeManifest renders the manifest as indented JSON with a trailing
// newline. Struct-field order is fixed, so the encoding is
// byte-deterministic.
func EncodeManifest(m *Manifest) ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteManifest writes <id>.manifest.json under dir and returns the
// full path.
func WriteManifest(dir string, m *Manifest) (string, error) {
	b, err := EncodeManifest(m)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, m.ID+".manifest.json")
	return path, os.WriteFile(path, b, 0o644)
}

// LoadManifest reads and validates a manifest file (see ParseManifest).
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return m, nil
}

// ParseManifest decodes and validates a manifest. Every artifact name
// must be a local slash-separated path (filepath.IsLocal: not empty,
// not absolute, no ".." escaping the directory): Verify and LoadSide
// join the names onto the manifest's directory, so any other name
// would make them read a file outside it.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("schema %q, want %q", m.Schema, ManifestSchema)
	}
	for _, a := range m.Artifacts {
		if !filepath.IsLocal(filepath.FromSlash(a.Name)) {
			return nil, fmt.Errorf("artifact %q is not a path inside the manifest directory", a.Name)
		}
	}
	return &m, nil
}

// Verify recomputes every artifact digest relative to dir and reports
// the first mismatch or missing file. A verified manifest guarantees
// the artifacts on disk are the ones the run wrote.
func (m *Manifest) Verify(dir string) error {
	for _, a := range m.Artifacts {
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(a.Name)))
		if err != nil {
			return fmt.Errorf("compare: verify %s: %w", m.ID, err)
		}
		if got := DigestBytes(data); got != a.Digest {
			return fmt.Errorf("compare: verify %s: artifact %s digest %s, manifest says %s (artifact modified since the run?)",
				m.ID, a.Name, got, a.Digest)
		}
	}
	return nil
}
