package experiment

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sora/internal/core"
	"sora/internal/telemetry"
	"sora/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-deadline", "ablation-degree", "ablation-localize", "ablation-model", "chaos", "ctrlplane",
		"ext-unified",
		"fig1", "fig10", "fig11", "fig12", "fig3", "fig4", "fig7", "fig9",
		"table1", "table2", "table3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q missing title or runner", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig10" {
		t.Errorf("ByID returned %q", e.ID)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestParamsScale(t *testing.T) {
	p := Params{DurationScale: 0.5}
	if got := p.scale(10 * time.Minute); got != 5*time.Minute {
		t.Errorf("scale(10m) = %v, want 5m", got)
	}
	// Floor at 20s.
	if got := p.scale(30 * time.Second); got != 20*time.Second {
		t.Errorf("scale(30s) = %v, want floor 20s", got)
	}
	// Zero/out-of-range selects full length.
	if got := (Params{}).scale(time.Minute); got != time.Minute {
		t.Errorf("unscaled = %v, want 1m", got)
	}
	if got := (Params{DurationScale: 7}).scale(time.Minute); got != time.Minute {
		t.Errorf("scale>1 = %v, want clamped to full", got)
	}
}

// TestExperimentsSmoke executes every registered experiment at the
// minimum duration scale. This is an integration test of the entire
// stack (kernel, cluster, models, autoscalers, harness); results at this
// scale are noisy and not asserted — only successful completion is.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs take ~1-2 minutes; skipped in -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			// Parallelism 4 exercises the worker-pool paths in every
			// driver; output equivalence with serial mode is asserted
			// separately in TestExperimentOutputEquivalence.
			p := Params{Seed: 1, DurationScale: 0.001, Quiet: true, Parallelism: 4}
			if err := e.Run(p, io.Discard); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
		})
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	p := Params{OutDir: dir}
	err := writeCSV(p, "test_series", []string{"a", "b"}, [][]float64{{1, 2}, {3.5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "test_series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	want := "a,b\n1,2\n3.5,4\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	// No OutDir: no-op.
	if err := writeCSV(Params{}, "x", nil, nil); err != nil {
		t.Errorf("no-outdir writeCSV errored: %v", err)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("fig10_Sora (run)"); got != "fig10_Sora__run_" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestDownsample(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := downsample(vals, 4)
	want := []float64{1.5, 3.5, 5.5, 7.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("downsample = %v, want %v", got, want)
		}
	}
	// Empty input: all NaN.
	empty := downsample(nil, 3)
	for _, v := range empty {
		if v == v { // NaN check
			t.Errorf("empty downsample produced non-NaN %v", v)
		}
	}
}

func TestPlotASCIIDoesNotPanic(t *testing.T) {
	var sb strings.Builder
	plotASCII(&sb, "test", 40, 6,
		namedSeries{name: "a", values: []float64{1, 5, 3, 8, 2}, mark: '*'},
		namedSeries{name: "b", values: []float64{2, 2, 2, 2, 2}, mark: 'o'},
	)
	out := sb.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "*") {
		t.Errorf("chart output missing content:\n%s", out)
	}
	// Degenerate: no data.
	sb.Reset()
	plotASCII(&sb, "empty", 40, 6, namedSeries{name: "x", mark: '*'})
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty chart output: %q", sb.String())
	}
}

func TestKneeSizeSelectsPlateauStart(t *testing.T) {
	th := 100 * time.Millisecond
	points := []sweepPoint{
		{size: 3, goodput: map[time.Duration]float64{th: 0}},
		{size: 5, goodput: map[time.Duration]float64{th: 500}},
		{size: 10, goodput: map[time.Duration]float64{th: 960}},
		{size: 30, goodput: map[time.Duration]float64{th: 1000}},
		{size: 80, goodput: map[time.Duration]float64{th: 990}},
	}
	if got := kneeSize(points, th, 0.05); got != 10 {
		t.Errorf("kneeSize = %d, want 10", got)
	}
	if got := bestSize(points, th); got != 30 {
		t.Errorf("bestSize = %d, want 30", got)
	}
	if got := maxGoodput(points, th); got != 1000 {
		t.Errorf("maxGoodput = %g, want 1000", got)
	}
}

// TestPostRunReaderDeclaresReach: ablation-deadline's model reads its
// whole profiling run after it and its drain. At a scale whose run
// outlasts the monitor's DefaultWindow, the warehouse and the worker's
// span log would be pruned under the monitor's reach alone and refuse a
// longer one after the run, so the run declares both at
// trace.DefaultRetention, and builds the model, before it; the output
// must then equal a run whose warehouse keeps trace.DefaultRetention
// because a telemetry recorder declared it.
func TestPostRunReaderDeclaresReach(t *testing.T) {
	e, err := ByID("ablation-deadline")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Seed: 5, DurationScale: 0.5, Quiet: true, Parallelism: 1}
	if d := p.scale(3 * time.Minute); d <= core.DefaultWindow {
		t.Fatalf("the profiling run lasts %v, not past the monitor's %v reach", d, core.DefaultWindow)
	}
	render := func(p Params) string {
		var sb strings.Builder
		if err := e.Run(p, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	got := render(p)
	p.Telemetry = telemetry.NewRecorder("ablation-deadline")
	if want := render(p); got != want {
		t.Fatalf("output with the model's reach differs from keeping %v:\n--- reach ---\n%s\n--- retention ---\n%s", trace.DefaultRetention, got, want)
	}
}
