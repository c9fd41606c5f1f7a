package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sora/internal/compare"
)

var update = flag.Bool("update", false, "rewrite the golden dashboard")

// TestGoldenDashboard pins the renderer byte for byte: the committed
// fixture must always produce the committed HTML. Regenerate with
// `go test ./cmd/soradash -run Golden -update` after an intentional
// renderer change and review the diff in a browser.
func TestGoldenDashboard(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sample.timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := compare.ParseTimeline("sample", string(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := render("Sora flight recorder", []*compare.Run{r})
	goldenPath := filepath.Join("testdata", "golden.html")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		line := firstDiffLine(got, string(want))
		t.Fatalf("dashboard HTML diverged from golden (run with -update after reviewing)\nfirst differing line: %s", line)
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i]
		}
	}
	return "<length differs>"
}

// TestParseTimelineModel checks the drawing model of the fixture: unit
// order is first-seen, fault windows pair up, markers only carry
// annotation kinds.
func TestParseTimelineModel(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sample.timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := compare.ParseTimeline("sample", string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Units) != 2 {
		t.Fatalf("units = %d, want 2", len(r.Units))
	}
	static, sora := newPanel(r.Units[0]), newPanel(r.Units[1])
	if static.Path != "demo/runs/static" || sora.Path != "demo/runs/sora" {
		t.Fatalf("unit order = %s, %s", static.Path, sora.Path)
	}
	if len(static.Cluster) != 3 || len(sora.Cluster) != 3 {
		t.Fatalf("cluster rows = %d/%d, want 3/3", len(static.Cluster), len(sora.Cluster))
	}
	if len(static.faults) != 1 || static.faults[0].open {
		t.Fatalf("static faults = %+v, want one closed window", static.faults)
	}
	if f := static.faults[0]; f.t0 != 1.5 || f.t1 != 2.5 || f.kind != "crash" || f.target != "backend" {
		t.Fatalf("fault window = %+v", f)
	}
	if len(static.marks) != 0 {
		t.Fatalf("static markers = %d, want 0", len(static.marks))
	}
	if len(sora.marks) != 2 || sora.marks[0].kind != "controller.decision" {
		t.Fatalf("sora markers = %+v", sora.marks)
	}
	if !strings.Contains(sora.marks[0].label, "resource=frontend threads") {
		t.Fatalf("marker label = %q", sora.marks[0].label)
	}
	if got := static.Services; len(got) != 2 || got[0] != "frontend" || got[1] != "backend" {
		t.Fatalf("service order = %v", got)
	}
}

// TestManifestNotDrawn: the run.manifest line chaos and ctrlplane
// timelines open with is the unit's identity, not an annotation, so it
// draws no marker; an open fault window closes at the unit's last line,
// and marker labels print numbers in float64 form.
func TestManifestNotDrawn(t *testing.T) {
	const raw = `{"t_us":0,"unit":"u","kind":"run.manifest","id":"chaos","seed":7,"strategy":"sora"}
{"t_us":1000000,"unit":"u","kind":"timeline.cluster","win_s":1,"p50_ms":5,"p95_ms":9,"p99_ms":12,"good":10,"degraded":0,"violated":0}
{"t_us":1200000,"unit":"u","kind":"fault.inject","kind":"crash","target":"cart"}
{"t_us":1500000,"unit":"u","kind":"autoscaler.scale","service":"cart","from":2,"to":3,"budget_us":1500000}
{"t_us":2000000,"unit":"u","kind":"timeline.cluster","win_s":1,"p50_ms":6,"p95_ms":9,"p99_ms":14,"good":9,"degraded":1,"violated":0}
`
	r, err := compare.ParseTimeline("chaos", raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Units) != 1 {
		t.Fatalf("units = %d, want 1", len(r.Units))
	}
	p := newPanel(r.Units[0])
	if len(p.Identity) != 3 || p.Identity[0].Value != "chaos" {
		t.Fatalf("identity = %+v", p.Identity)
	}
	if len(p.marks) != 1 || p.marks[0].kind != "autoscaler.scale" {
		t.Fatalf("markers = %+v, want only the autoscaler move", p.marks)
	}
	if want := "autoscaler.scale budget_us=1.5e+06 from=2 service=cart to=3"; p.marks[0].label != want {
		t.Fatalf("marker label = %q, want %q", p.marks[0].label, want)
	}
	if len(p.faults) != 1 || p.faults[0].t1 != 2 {
		t.Fatalf("faults = %+v, want one window closed at 2s", p.faults)
	}
	if html := render("t", []*compare.Run{r}); strings.Contains(html, "run.manifest") {
		t.Fatal("dashboard draws the run.manifest record")
	}
}

// TestRenderEmpty: a timeline with no rows still renders a document.
func TestRenderEmpty(t *testing.T) {
	r, err := compare.ParseTimeline("empty", "")
	if err != nil {
		t.Fatal(err)
	}
	out := render("t", []*compare.Run{r})
	if !strings.Contains(out, "<!DOCTYPE html>") {
		t.Fatal("no document produced")
	}
}
