package compare

import (
	"encoding/json"
	"fmt"
	"os"
)

// The regression sentinel's data model: a checked-in BASELINE.json
// pins a set of named metrics from a deterministic scenario suite
// (goodput fractions, p99s) plus machine-sensitive bench numbers
// (allocs/op, events/s), each with its own tolerance and direction.
// `sorabench -baseline` replays the suite and checks the fresh values
// here; scripts/regress.sh turns violations into a nonzero exit.

// BaselineSchema identifies the baseline encoding.
const BaselineSchema = "sora-baseline/v1"

// Metric kinds: "sim" metrics are fully deterministic (same seed →
// same value, byte-for-byte) and are checked even in -quick mode;
// "alloc" counts are stable per Go version but not across them;
// "timing" numbers are machine-dependent and get the loosest
// tolerances. Quick mode (the verify.sh smoke step) checks only "sim"
// so CI noise can never fail the build.
const (
	KindSim    = "sim"
	KindAlloc  = "alloc"
	KindTiming = "timing"
)

// BaselineEntry pins one metric.
type BaselineEntry struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance"` // relative, e.g. 0.05 = 5%
	Direction string  `json:"direction"` // "higher" or "lower" is better
	Kind      string  `json:"kind"`      // sim | alloc | timing
}

// Baseline is the checked-in sentinel file.
type Baseline struct {
	Schema  string          `json:"schema"`
	Entries []BaselineEntry `json:"entries"`
}

// LoadBaseline reads and validates a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := ParseBaseline(data)
	if err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return b, nil
}

// ParseBaseline decodes and validates a baseline. Every entry must name
// a known kind and direction exactly: Check reads any direction but
// "lower" as higher-is-better, and quick mode skips any kind but "sim",
// so a misspelling would flip a bound or drop an entry silently.
func ParseBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("schema %q, want %q", b.Schema, BaselineSchema)
	}
	for _, e := range b.Entries {
		switch e.Kind {
		case KindSim, KindAlloc, KindTiming:
		default:
			return nil, fmt.Errorf("entry %q: kind %q, want sim, alloc or timing", e.Name, e.Kind)
		}
		if e.Direction != "higher" && e.Direction != "lower" {
			return nil, fmt.Errorf("entry %q: direction %q, want higher or lower", e.Name, e.Direction)
		}
	}
	return &b, nil
}

// WriteBaseline writes the baseline as indented JSON.
func WriteBaseline(path string, b *Baseline) error {
	data, err := encodeBaseline(b)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func encodeBaseline(b *Baseline) ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Violation is one failed baseline check.
type Violation struct {
	Name      string  // metric name
	Baseline  float64 // pinned value
	Got       float64 // fresh value
	Limit     float64 // the bound Got crossed
	Direction string
}

func (v Violation) String() string {
	rel := "≥"
	if v.Direction == "lower" {
		rel = "≤"
	}
	return fmt.Sprintf("%s = %g regressed past baseline %g (want %s %g)",
		v.Name, v.Got, v.Baseline, rel, v.Limit)
}

// Check compares fresh metric values against the baseline. quick
// restricts the check to deterministic "sim" entries. It returns the
// violations plus the names of baseline entries the fresh run did not
// produce (themselves a failure: a silently vanished metric must not
// pass).
func (b *Baseline) Check(got map[string]float64, quick bool) (violations []Violation, missing []string) {
	for _, e := range b.Entries {
		if quick && e.Kind != KindSim {
			continue
		}
		v, ok := got[e.Name]
		if !ok {
			missing = append(missing, e.Name)
			continue
		}
		var limit float64
		var bad bool
		switch e.Direction {
		case "lower":
			// Lower is better: fail when the fresh value exceeds the
			// pinned value by more than the tolerance.
			limit = e.Value * (1 + e.Tolerance)
			bad = v > limit
		default: // "higher"
			limit = e.Value * (1 - e.Tolerance)
			bad = v < limit
		}
		if bad {
			violations = append(violations, Violation{
				Name: e.Name, Baseline: e.Value, Got: v, Limit: limit, Direction: e.Direction,
			})
		}
	}
	return violations, missing
}
