package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema identifies the BENCH_kernel.json format version.
const Schema = "sora-bench/v1"

// Entry is one recorded run of the suite. Entries accumulate in the
// report file across PRs (keyed by label), so the file carries the
// performance trajectory, not just the latest numbers.
type Entry struct {
	Label   string   `json:"label"`
	Go      string   `json:"go"`
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// Report is the on-disk BENCH_kernel.json document.
type Report struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// LoadReport reads a report file; a missing file yields an empty report
// so first runs and re-runs share one code path.
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Report{Schema: Schema}, nil
	}
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return r, nil
}

// Upsert replaces the entry with e's label, or appends e. Re-running the
// suite under the same label refreshes that entry and leaves the rest of
// the history untouched.
func (r *Report) Upsert(e Entry) {
	for i := range r.Entries {
		if r.Entries[i].Label == e.Label {
			r.Entries[i] = e
			return
		}
	}
	r.Entries = append(r.Entries, e)
}

// WriteReport writes the report as indented JSON with a trailing
// newline, atomically enough for a checked-in artifact (write then
// rename within the target directory).
func WriteReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
