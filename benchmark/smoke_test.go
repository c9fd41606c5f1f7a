package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test checks the program against.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(scenarios) {
		t.Fatalf("%d workloads declared, program has %d (limit 2-8)", n, len(scenarios))
	}
	for i, w := range spec.Workloads {
		if w.Name != scenarios[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, scenarios[i].name)
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics (limits 16 and 128)", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] || m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("bad metric declaration %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// runQuick runs the program in-process and decodes its result line.
func runQuick(t *testing.T, args ...string) jsonReport {
	t.Helper()
	var out bytes.Buffer
	if code := run(append([]string{"-quick"}, args...), &out, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep jsonReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("result %+v", rep)
	}
	return rep
}

// checkPrinted requires exactly the declared metrics, each finite with
// its declared unit.
func checkPrinted(t *testing.T, got map[string]jsonMetric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s not printed", name)
		case m.Unit != unit:
			t.Errorf("%s printed in %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s printed but not declared", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)

	// Timed run: every end-to-end metric for every workload.
	timed := runQuick(t)
	want := map[string]string{}
	for _, sc := range scenarios {
		for _, m := range spec.EndToEnd {
			want[sc.name+"."+m.Name] = m.Unit
		}
	}
	checkPrinted(t, timed.Metrics, want)
	for name, m := range timed.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, end-to-end metrics must be positive", name, m.Value)
		}
	}

	// Traced run: every per-layer metric; profiles and spans on disk.
	dir := t.TempDir()
	traced := runQuick(t, "-trace", "1", "-workload", "steady", "-trace-dir", dir)
	want = map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	checkPrinted(t, traced.Metrics, want)
	var cpu, alloc float64
	for name, m := range traced.Metrics {
		switch {
		case strings.HasSuffix(name, ".cpu_frac"):
			cpu += m.Value
		case strings.HasSuffix(name, ".alloc_frac"):
			alloc += m.Value
		}
	}
	if math.Abs(cpu-1) > 0.01 || math.Abs(alloc-1) > 0.01 {
		t.Errorf("cpu shares sum to %v, alloc shares to %v", cpu, alloc)
	}
	for _, f := range []string{"steady.run1.cpu.pprof", "steady.allocs.pprof", "spans.jsonl"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty: %v", f, err)
		}
	}
}
