package compare

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sora/internal/profile"
)

// timelineA/timelineB are two hand-built three-window runs of the same
// seed: identical until t=15s, then B scales its pool where A holds,
// B's p99 drops and its decision stream diverges at index 1.
const timelineA = `{"t_us":0,"unit":"runA","kind":"run.manifest","id":"runA","tool":"simrun","seed":7,"strategy":"sora"}
{"t_us":5000000,"unit":"runA","kind":"timeline.window","service":"cart","p50_ms":4,"p95_ms":9,"p99_ms":12.5,"arrivals":50,"completions":48,"drops":0,"queue":1,"conc":2,"replicas":2,"pool":"cart-threads","pool_size":8,"pool_used":5,"util":0.6,"placement":"cart-0@node-0,cart-1@node-1"}
{"t_us":5000000,"unit":"runA","kind":"timeline.cluster","win_s":5,"p50_ms":5,"p95_ms":10,"p99_ms":14,"span_p99_ms":9,"good":40,"degraded":5,"violated":3,"completed":48,"dropped":0,"failed":0,"refused":0,"retries":0,"rejected":0,"timedout":0,"lost":0,"inflight":2,"breakers_open":0}
{"t_us":10000000,"unit":"runA","kind":"controller.decision","resource":"cart-threads","reason":"knee","applied":true,"current":8,"to":8,"knee_x":7.5}
{"t_us":10000000,"unit":"runA","kind":"timeline.window","service":"cart","p50_ms":5,"p95_ms":11,"p99_ms":15,"arrivals":52,"completions":50,"drops":0,"queue":2,"conc":3,"replicas":2,"pool":"cart-threads","pool_size":8,"pool_used":7,"util":0.8,"placement":"cart-0@node-0,cart-1@node-1"}
{"t_us":10000000,"unit":"runA","kind":"timeline.cluster","win_s":5,"p50_ms":6,"p95_ms":12,"p99_ms":16,"span_p99_ms":10,"good":38,"degraded":8,"violated":4,"completed":50,"dropped":0,"failed":0,"refused":0,"retries":0,"rejected":0,"timedout":0,"lost":0,"inflight":3,"breakers_open":0}
{"t_us":15000000,"unit":"runA","kind":"controller.decision","resource":"cart-threads","reason":"knee","applied":false,"current":8,"to":8,"knee_x":7.9}
{"t_us":15000000,"unit":"runA","kind":"timeline.window","service":"cart","p50_ms":6,"p95_ms":13,"p99_ms":20,"arrivals":55,"completions":51,"drops":1,"queue":4,"conc":4,"replicas":2,"pool":"cart-threads","pool_size":8,"pool_used":8,"util":0.95,"placement":"cart-0@node-0,cart-1@node-1"}
{"t_us":15000000,"unit":"runA","kind":"timeline.cluster","win_s":5,"p50_ms":7,"p95_ms":14,"p99_ms":22,"span_p99_ms":12,"good":30,"degraded":12,"violated":9,"completed":51,"dropped":1,"failed":0,"refused":0,"retries":0,"rejected":0,"timedout":0,"lost":0,"inflight":4,"breakers_open":0}
`

const timelineB = `{"t_us":0,"unit":"runB","kind":"run.manifest","id":"runB","tool":"simrun","seed":7,"strategy":"sora"}
{"t_us":5000000,"unit":"runB","kind":"timeline.window","service":"cart","p50_ms":4,"p95_ms":9,"p99_ms":12.5,"arrivals":50,"completions":48,"drops":0,"queue":1,"conc":2,"replicas":2,"pool":"cart-threads","pool_size":8,"pool_used":5,"util":0.6,"placement":"cart-0@node-0,cart-1@node-1"}
{"t_us":5000000,"unit":"runB","kind":"timeline.cluster","win_s":5,"p50_ms":5,"p95_ms":10,"p99_ms":14,"span_p99_ms":9,"good":40,"degraded":5,"violated":3,"completed":48,"dropped":0,"failed":0,"refused":0,"retries":0,"rejected":0,"timedout":0,"lost":0,"inflight":2,"breakers_open":0}
{"t_us":10000000,"unit":"runB","kind":"controller.decision","resource":"cart-threads","reason":"knee","applied":true,"current":8,"to":8,"knee_x":7.5}
{"t_us":10000000,"unit":"runB","kind":"timeline.window","service":"cart","p50_ms":5,"p95_ms":11,"p99_ms":15,"arrivals":52,"completions":50,"drops":0,"queue":2,"conc":3,"replicas":2,"pool":"cart-threads","pool_size":8,"pool_used":7,"util":0.8,"placement":"cart-0@node-0,cart-1@node-1"}
{"t_us":10000000,"unit":"runB","kind":"timeline.cluster","win_s":5,"p50_ms":6,"p95_ms":12,"p99_ms":16,"span_p99_ms":10,"good":38,"degraded":8,"violated":4,"completed":50,"dropped":0,"failed":0,"refused":0,"retries":0,"rejected":0,"timedout":0,"lost":0,"inflight":3,"breakers_open":0}
{"t_us":15000000,"unit":"runB","kind":"controller.decision","resource":"cart-threads","reason":"knee","applied":true,"current":8,"to":12,"knee_x":11.2}
{"t_us":15000000,"unit":"runB","kind":"timeline.window","service":"cart","p50_ms":5,"p95_ms":11,"p99_ms":16,"arrivals":55,"completions":54,"drops":0,"queue":1,"conc":3,"replicas":2,"pool":"cart-threads","pool_size":12,"pool_used":9,"util":0.7,"placement":"cart-0@node-0,cart-1@node-2"}
{"t_us":15000000,"unit":"runB","kind":"timeline.cluster","win_s":5,"p50_ms":6,"p95_ms":12,"p99_ms":17,"span_p99_ms":10,"good":44,"degraded":7,"violated":3,"completed":54,"dropped":0,"failed":0,"refused":0,"retries":0,"rejected":0,"timedout":0,"lost":0,"inflight":3,"breakers_open":0}
`

func parseBoth(t *testing.T) (*Unit, *Unit) {
	t.Helper()
	ra, err := ParseTimeline("a", timelineA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ParseTimeline("b", timelineB)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := ra.SelectUnit("")
	if err != nil {
		t.Fatal(err)
	}
	ub, err := rb.SelectUnit("")
	if err != nil {
		t.Fatal(err)
	}
	return ua, ub
}

func TestParseTimeline(t *testing.T) {
	ua, _ := parseBoth(t)
	if len(ua.Cluster) != 3 || len(ua.Decisions) != 2 {
		t.Fatalf("unit A: %d cluster windows, %d decisions; want 3, 2", len(ua.Cluster), len(ua.Decisions))
	}
	if ua.Cluster[2].P99 != 22 || ua.Cluster[2].Good != 30 {
		t.Fatalf("cluster window 3 = %+v", ua.Cluster[2])
	}
	if got := ua.SvcRows["cart"][0].P99; got != 12.5 {
		t.Fatalf("cart window 1 p99 = %g, want 12.5", got)
	}
	// Identity comes from the run.manifest event, attrs in publish order;
	// numeric values are marked as such.
	if len(ua.Identity) != 4 || ua.Identity[0] != Str("id", "runA") || ua.Identity[2] != (KV{Key: "seed", Value: "7", Number: true}) {
		t.Fatalf("identity = %+v", ua.Identity)
	}
	// Decision attrs stay byte-faithful: knee_x keeps its artifact form.
	var knee string
	for _, kv := range ua.Decisions[0].Attrs {
		if kv.Key == "knee_x" {
			knee = kv.Value
		}
	}
	if knee != "7.5" {
		t.Fatalf("knee_x rendered %q, want 7.5 verbatim", knee)
	}
}

func TestCompareDeltas(t *testing.T) {
	ua, ub := parseBoth(t)
	res := Compare(ua, ub, nil, nil, "A", "B")
	if len(res.Aligned) != 3 || res.UnmatchedA != 0 || res.UnmatchedB != 0 {
		t.Fatalf("aligned %d windows (unmatched A %d B %d), want 3/0/0",
			len(res.Aligned), res.UnmatchedA, res.UnmatchedB)
	}
	last := res.Aligned[2]
	if last.P99A != 22 || last.P99B != 17 {
		t.Fatalf("window 3 p99: A %g B %g, want 22/17", last.P99A, last.P99B)
	}
	if res.GoodputA.Good != 108 || res.GoodputB.Good != 122 {
		t.Fatalf("good totals A %d B %d, want 108/122", res.GoodputA.Good, res.GoodputB.Good)
	}
	if res.SummaryA.Count != 6 || res.SummaryB.Count != 6 {
		t.Fatalf("summary counts A %d B %d, want 6 window-p99 samples each", res.SummaryA.Count, res.SummaryB.Count)
	}
	if res.SummaryA.P99 <= res.SummaryB.P99 {
		t.Fatalf("A's windowed p99 distribution (%g) should sit above B's (%g)", res.SummaryA.P99, res.SummaryB.P99)
	}
	if len(res.Services) != 1 {
		t.Fatalf("services = %+v, want one (cart)", res.Services)
	}
	svc := res.Services[0]
	if svc.Service != "cart" || svc.FirstPoolTUs != 15000000 || svc.MaxPoolDelta != 4 || svc.FirstReplicaTUs != -1 {
		t.Fatalf("cart divergence = %+v", svc)
	}
	// B reassigns cart-1 to node-2 in the same window it grows the pool.
	if svc.FirstPlacementTUs != 15000000 {
		t.Fatalf("cart placement divergence at t=%d, want 15000000", svc.FirstPlacementTUs)
	}
	// Decision streams agree at index 0, diverge at index 1.
	d := res.Divergence
	if d == nil || d.Index != 1 || d.TUsA != 15000000 || d.TUsB != 15000000 {
		t.Fatalf("divergence = %+v, want index 1 at t=15s", d)
	}
}

func TestCompareIdenticalRuns(t *testing.T) {
	ua, _ := parseBoth(t)
	ua2, _ := parseBoth(t)
	res := Compare(ua, ua2, nil, nil, "A", "A2")
	if res.Divergence != nil {
		t.Fatalf("identical decision streams reported divergence %+v", res.Divergence)
	}
	for _, wd := range res.Aligned {
		if wd.P99A != wd.P99B || wd.GoodA != wd.GoodB {
			t.Fatalf("identical runs produced a nonzero window delta: %+v", wd)
		}
	}
	svc := res.Services[0]
	if svc.FirstReplicaTUs != -1 || svc.FirstPoolTUs != -1 || svc.FirstPlacementTUs != -1 {
		t.Fatalf("identical runs reported knob divergence: %+v", svc)
	}
}

func TestCompareOneSidedDecisions(t *testing.T) {
	ua, ub := parseBoth(t)
	ub.Decisions = nil // autoscaler-style run: no controller at all
	res := Compare(ua, ub, nil, nil, "sora", "auto")
	d := res.Divergence
	if d == nil || d.Index != 0 || d.TUsB != -1 || d.TUsA != 10000000 {
		t.Fatalf("one-sided divergence = %+v, want index 0 with B exhausted", d)
	}
}

func TestPhaseDiff(t *testing.T) {
	a := []profile.FoldedLine{
		{Stack: "getCart;front-end;cart;queue-wait", Dur: 400 * time.Millisecond},
		{Stack: "getCart;front-end;cart;service", Dur: 300 * time.Millisecond},
	}
	b := []profile.FoldedLine{
		{Stack: "getCart;front-end;cart;queue-wait", Dur: 100 * time.Millisecond},
		{Stack: "getCart;front-end;cart;service", Dur: 310 * time.Millisecond},
		{Stack: "getCart;front-end;cart;conn-wait", Dur: 50 * time.Millisecond},
	}
	ph := phaseDiff(a, b)
	if len(ph) != 3 {
		t.Fatalf("phaseDiff rows = %d, want 3", len(ph))
	}
	// Biggest mover first: queue-wait shed 300ms.
	if ph[0].Phase != "queue-wait" || ph[0].DeltaUs != -300000 {
		t.Fatalf("top mover = %+v, want queue-wait -300000us", ph[0])
	}
	if ph[1].Phase != "conn-wait" || ph[1].AUs != 0 || ph[1].BUs != 50000 {
		t.Fatalf("B-only phase row = %+v", ph[1])
	}
}

func TestReportsRenderDeterministically(t *testing.T) {
	ua, ub := parseBoth(t)
	render := func() (string, string, string) {
		res := Compare(ua, ub, nil, nil, "A", "B")
		var txt, js, ht strings.Builder
		if err := WriteText(&txt, res); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&js, res); err != nil {
			t.Fatal(err)
		}
		if err := WriteHTML(&ht, res); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String(), ht.String()
	}
	t1, j1, h1 := render()
	t2, j2, h2 := render()
	if t1 != t2 || j1 != j2 || h1 != h2 {
		t.Fatal("report rendering is not deterministic across invocations")
	}
	for _, want := range []string{"first divergence at decision #1", "knee_x", "goodput split", "windowed p99 distribution"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("text report missing %q:\n%s", want, t1)
		}
	}
	if !strings.Contains(h1, "<svg") || !strings.Contains(h1, "polyline") {
		t.Fatal("HTML report missing SVG panels")
	}
}

func TestManifestRoundTripAndVerify(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r.timeline.jsonl"), []byte(timelineA), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := BuildManifest(dir, "r", "simrun", 7,
		[]KV{Str("strategy", "sora"), Str("app", "sockshop")},
		[]KV{Num("completed", 149)},
		[]string{"r.timeline.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	// Params sort by key regardless of caller order.
	if m.Params[0].Key != "app" || m.Params[1].Key != "strategy" {
		t.Fatalf("params not sorted: %+v", m.Params)
	}
	path, err := WriteManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "r" || got.Seed != 7 || got.Param("strategy") != "sora" {
		t.Fatalf("round-trip manifest = %+v", got)
	}
	if got.ArtifactBySuffix(".timeline.jsonl") != "r.timeline.jsonl" {
		t.Fatalf("artifact lookup failed: %+v", got.Artifacts)
	}
	if err := got.Verify(dir); err != nil {
		t.Fatalf("verify of untouched artifacts: %v", err)
	}
	// Tampering must be detected.
	if err := os.WriteFile(filepath.Join(dir, "r.timeline.jsonl"), []byte(timelineA+"\n{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(dir); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("verify of tampered artifact = %v, want digest mismatch", err)
	}
}

func TestEncodeManifestDeterministic(t *testing.T) {
	m := &Manifest{Schema: ManifestSchema, ID: "x", Tool: "t", Seed: 1,
		Params: []KV{Str("a", "1")}, Counters: []KV{Num("c", 2)},
		Artifacts: []Artifact{{Name: "x.timeline.jsonl", Bytes: 3, Digest: "00"}}}
	b1, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := EncodeManifest(m)
	if string(b1) != string(b2) {
		t.Fatal("manifest encoding not deterministic")
	}
	if !strings.HasSuffix(string(b1), "\n") {
		t.Fatal("manifest must end with a newline")
	}
}

// TestLoadSidesConcurrent exercises the concurrent two-side loader
// (run under -race in verify.sh) end to end from manifests on disk.
func TestLoadSidesConcurrent(t *testing.T) {
	dir := t.TempDir()
	writeRun := func(id, raw string) string {
		if err := os.WriteFile(filepath.Join(dir, id+".timeline.jsonl"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := BuildManifest(dir, id, "simrun", 7, nil, nil, []string{id + ".timeline.jsonl"})
		if err != nil {
			t.Fatal(err)
		}
		path, err := WriteManifest(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	pa := writeRun("ra", timelineA)
	pb := writeRun("rb", timelineB)
	a, b, err := LoadSides(
		SideOptions{Path: pa, Verify: true},
		SideOptions{Path: pb, Verify: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != "ra" || b.Label != "rb" {
		t.Fatalf("labels = %q, %q", a.Label, b.Label)
	}
	if len(a.Run.Units) != 1 || len(b.Run.Units) != 1 {
		t.Fatalf("unit counts = %d, %d", len(a.Run.Units), len(b.Run.Units))
	}
	// A bad digest on either side must fail the load.
	if err := os.WriteFile(filepath.Join(dir, "rb.timeline.jsonl"), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSides(SideOptions{Path: pa, Verify: true}, SideOptions{Path: pb, Verify: true}); err == nil {
		t.Fatal("LoadSides accepted a tampered artifact")
	}
}

func TestBaselineCheck(t *testing.T) {
	b := &Baseline{Schema: BaselineSchema, Entries: []BaselineEntry{
		{Name: "chaos/sockshop_Sora/good_frac", Value: 0.90, Tolerance: 0.02, Direction: "higher", Kind: KindSim},
		{Name: "chaos/sockshop_Sora/p99_ms", Value: 300, Tolerance: 0.05, Direction: "lower", Kind: KindSim},
		{Name: "bench/step/allocs_per_op", Value: 10, Tolerance: 0, Direction: "lower", Kind: KindAlloc},
	}}
	ok := map[string]float64{
		"chaos/sockshop_Sora/good_frac": 0.895, // within 2%
		"chaos/sockshop_Sora/p99_ms":    310,   // within 5%
		"bench/step/allocs_per_op":      10,
	}
	if v, missing := b.Check(ok, false); len(v) != 0 || len(missing) != 0 {
		t.Fatalf("clean check: violations %v, missing %v", v, missing)
	}
	bad := map[string]float64{
		"chaos/sockshop_Sora/good_frac": 0.80, // regressed
		"chaos/sockshop_Sora/p99_ms":    400,  // regressed
		"bench/step/allocs_per_op":      11,   // regressed
	}
	v, _ := b.Check(bad, false)
	if len(v) != 3 {
		t.Fatalf("degraded check: %d violations (%v), want 3", len(v), v)
	}
	if !strings.Contains(v[0].String(), "regressed") {
		t.Fatalf("violation rendering: %q", v[0].String())
	}
	// Quick mode ignores alloc/timing kinds and missing sim metrics fail.
	v, missing := b.Check(map[string]float64{"chaos/sockshop_Sora/p99_ms": 299}, true)
	if len(v) != 0 || len(missing) != 1 || missing[0] != "chaos/sockshop_Sora/good_frac" {
		t.Fatalf("quick check: violations %v, missing %v", v, missing)
	}
	// Round-trip through disk.
	path := filepath.Join(t.TempDir(), "BASELINE.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 3 || got.Entries[0] != b.Entries[0] {
		t.Fatalf("baseline round-trip = %+v", got)
	}
}
