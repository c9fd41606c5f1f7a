// Package experiment contains one runner per table and figure of the
// paper's evaluation (Figures 1, 3, 4, 7, 9-12 and Tables 1-3), plus the
// ablation studies DESIGN.md calls out. Each runner rebuilds the paper's
// scenario on the simulated cluster, drives it with the corresponding
// workload, and prints the same rows/series the paper reports (and
// optionally CSV files for plotting).
//
// Absolute magnitudes differ from the paper — the substrate is a
// calibrated simulator, not the authors' VMware testbed — but each
// runner's output is arranged so the paper's qualitative claims (who
// wins, where knees fall, how they move) can be checked directly.
// EXPERIMENTS.md records the paper-vs-measured comparison.
package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"sora/internal/profile"
	"sora/internal/scenario"
	"sora/internal/telemetry"
)

// Params are the common knobs of every experiment runner.
type Params struct {
	// Seed drives all randomness; equal seeds reproduce bit-identical
	// output.
	Seed uint64
	// OutDir, when non-empty, receives one CSV per emitted series/table.
	OutDir string
	// DurationScale compresses every run's duration (0 < s <= 1) for
	// smoke testing; 0 selects 1.0 (full length).
	DurationScale float64
	// Quiet suppresses the ASCII charts, keeping only numeric output.
	Quiet bool
	// Parallelism bounds the worker pool for independent simulation runs
	// (sweep points, strategy pairs, validation cells, whole figures):
	// 0 selects GOMAXPROCS, 1 forces serial execution. Output is
	// bit-for-bit identical at any setting — results are collected in
	// deterministic index order and each run owns its kernel.
	Parallelism int
	// Telemetry, when non-nil, receives structured events, counters and
	// span samples from every cluster the experiment builds. Fan-out
	// sites attach index-keyed sub-recorders (telemetry.Recorder.Unit),
	// so exported artifacts are byte-identical between serial and
	// parallel runs. Nil disables telemetry at zero cost.
	Telemetry *telemetry.Recorder
	// Profile, when non-nil, receives every completed trace from every
	// cluster the experiment builds, for latency attribution. Unlike
	// Telemetry it is shared as-is across parallel units: the aggregator
	// only keeps commutative integer sums and sorts at render time, so
	// its artifacts are byte-identical between serial and parallel runs
	// without per-unit scoping. Nil disables profiling at zero cost.
	Profile *profile.Aggregator
	// Timeline, when > 0 and Telemetry is set, arms a flight recorder on
	// every cluster the experiment builds: per-service latency sketches,
	// rate counters and pool state are flushed as `timeline.*` rows once
	// per window of this length (see cluster.ArmFlightRecorder). Export
	// with telemetry.Recorder.WriteTimeline; rows are byte-identical
	// between serial and parallel runs. Zero disables the recorder.
	Timeline time.Duration
}

// unitParams returns a copy of p whose Telemetry points at the given
// sub-recorder — the standard way fan-out sites scope telemetry to one
// parallel work item.
func (p Params) unitParams(rec *telemetry.Recorder) Params {
	p.Telemetry = rec
	return p
}

// observe routes a scenario's telemetry, flight recorder and profile to
// p's sinks.
func (p Params) observe(s scenario.Scenario) scenario.Scenario {
	s.Telemetry, s.FlightWindow, s.Profile = p.Telemetry, p.Timeline, p.Profile
	return s
}

func (p Params) scale(d time.Duration) time.Duration {
	s := p.DurationScale
	if s <= 0 || s > 1 {
		s = 1
	}
	scaled := time.Duration(float64(d) * s)
	if scaled < 20*time.Second {
		scaled = 20 * time.Second
	}
	if scaled > d {
		scaled = d
	}
	return scaled
}

// Experiment is one reproducible table/figure runner.
type Experiment struct {
	// ID is the short handle used by `sorabench -exp` (e.g. "fig10").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes the experiment, writing human-readable output to w.
	Run func(p Params, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q", id)
}

// writeCSV writes rows (with a header) to OutDir/name.csv when OutDir is
// set, each value formatted with %g; it is a no-op otherwise.
func writeCSV(p Params, name string, header []string, rows [][]float64) error {
	cells := make([][]string, len(rows))
	for i, row := range rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	return writeCSVStrings(p, name, header, cells)
}

// writeCSVStrings writes rows (with a header) to OutDir/name.csv when
// OutDir is set; it is a no-op otherwise. Cells are written verbatim;
// callers keep them comma-free.
func writeCSVStrings(p Params, name string, header []string, rows [][]string) error {
	if p.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	path := filepath.Join(p.OutDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	for _, row := range append([][]string{header}, rows...) {
		for i, v := range row {
			if i > 0 {
				if _, err := io.WriteString(f, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(f, v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(f, "\n"); err != nil {
			return err
		}
	}
	return f.Sync()
}
