package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sora/internal/sim"
)

// TestNilReceiverSafe exercises every method on a nil recorder: the
// disabled path must be a silent no-op, never a panic.
func TestNilReceiverSafe(t *testing.T) {
	var r *Recorder
	if g := r.Group("x"); g != nil {
		t.Fatalf("nil.Group = %v, want nil", g)
	}
	if u := r.Unit(3, "y"); u != nil {
		t.Fatalf("nil.Unit = %v, want nil", u)
	}
	r.Publish(0, "kind", String("k", "v"))
	r.AddCounter("c", 1)
	r.SetGauge("g", 2)
	r.AddSpan(SpanSample{})
	if r.Label() != "" || r.Events() != nil || r.CounterTotals() != nil {
		t.Fatal("nil recorder accessors must return zero values")
	}
	if err := r.WriteJSONL(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFiles("", ""); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathAllocationFree verifies the zero-overhead-when-disabled
// contract: publishing against a nil recorder must not allocate. (Call
// sites guard attribute construction behind a nil check, so the methods
// themselves are the whole disabled-path cost.)
func TestDisabledPathAllocationFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Publish(1, "controller.decision")
		r.AddCounter("c", 1)
		r.SetGauge("g", 1)
		r.Unit(0, "u")
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// TestAttrValues pins the JSON encoding of every attribute constructor.
func TestAttrValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want string
	}{
		{String("s", `quote " and \ back`), `"quote \" and \\ back"`},
		{String("s", "line\nbreak\ttab"), `"line\nbreak\ttab"`},
		{String("s", "ctl\x01"), `"ctl\u0001"`},
		{Int("i", -3), "-3"},
		{Int64("i", 1<<40), "1099511627776"},
		{Float("f", 1.5), "1.5"},
		{Float("f", 0.1), "0.1"},
		{Bool("b", true), "true"},
		{Bool("b", false), "false"},
		{Dur("d", 1500*time.Microsecond), "1.5"},
	}
	for _, c := range cases {
		if got := c.attr.Value(); got != c.want {
			t.Errorf("attr %q: got %s, want %s", c.attr.Key, got, c.want)
		}
	}
}

// buildSample constructs a small fixed tree used by the sink goldens.
func buildSample() *Recorder {
	root := NewRecorder("exp")
	root.Publish(sim.Time(time.Millisecond), "root.start", Int("n", 1))
	grp := root.Group("phase")
	u1 := grp.Unit(1, "beta")
	u0 := grp.Unit(0, "alpha")
	u0.Publish(sim.Time(2*time.Millisecond), "controller.decision",
		String("service", "cart"), Float("knee_x", 7.5), Bool("applied", true))
	u0.AddCounter("sora_requests_completed_total", 10)
	u0.AddCounter(`sora_service_dropped_total{service="cart"}`, 2)
	u0.SetGauge("sora_inflight", 3)
	u1.Publish(sim.Time(3*time.Millisecond), "cluster.drop", String("service", "cart"), Int("count", 4))
	u1.AddSpan(SpanSample{Trace: 9, Type: "getCart", Service: "cart", Instance: "cart-0", Depth: 1,
		Start: sim.Time(time.Millisecond), End: sim.Time(4 * time.Millisecond)})
	return root
}

func TestWriteJSONLGolden(t *testing.T) {
	var b strings.Builder
	if err := buildSample().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"t_us":1000,"unit":"exp","kind":"root.start","n":1}
{"t_us":2000,"unit":"exp/phase/alpha","kind":"controller.decision","service":"cart","knee_x":7.5,"applied":true}
{"t_us":3000,"unit":"exp/phase/beta","kind":"cluster.drop","service":"cart","count":4}
`
	if b.String() != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	// Every line must also be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
	}
}

func TestWriteMetricsGolden(t *testing.T) {
	var b strings.Builder
	if err := buildSample().WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE sora_requests_completed_total counter
sora_requests_completed_total{unit="exp/phase/alpha"} 10
# TYPE sora_service_dropped_total counter
sora_service_dropped_total{service="cart",unit="exp/phase/alpha"} 2
# TYPE sora_inflight gauge
sora_inflight{unit="exp/phase/alpha"} 3
`
	if b.String() != want {
		t.Fatalf("metrics mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteChromeTraceParses(t *testing.T) {
	var b strings.Builder
	if err := buildSample().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	var spans, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["dur"].(float64) != 3000 {
				t.Errorf("span dur = %v, want 3000", ev["dur"])
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if spans != 1 || instants != 3 || meta < 3 {
		t.Fatalf("got %d spans, %d instants, %d metadata events; want 1, 3, >=3", spans, instants, meta)
	}
}

// TestGroupDedup verifies repeated group labels get distinct paths.
func TestGroupDedup(t *testing.T) {
	r := NewRecorder("exp")
	a := r.Group("sweep")
	b := r.Group("sweep")
	if a.Label() != "sweep" || b.Label() != "sweep#2" {
		t.Fatalf("labels = %q, %q; want sweep, sweep#2", a.Label(), b.Label())
	}
}

// TestUnitOrderDeterminism creates units from concurrent goroutines in
// scrambled order and verifies the export equals a sequential build —
// the core of the serial/parallel byte-identity contract.
func TestUnitOrderDeterminism(t *testing.T) {
	build := func(concurrent bool) string {
		root := NewRecorder("exp")
		grp := root.Group("fan")
		work := func(i int) {
			u := grp.Unit(i, "")
			u.Publish(sim.Time(time.Duration(i)*time.Millisecond), "tick", Int("i", i))
			u.AddCounter("n", float64(i))
		}
		if concurrent {
			var wg sync.WaitGroup
			for i := 7; i >= 0; i-- {
				wg.Add(1)
				go func(i int) { defer wg.Done(); work(i) }(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < 8; i++ {
				work(i)
			}
		}
		var b strings.Builder
		if err := root.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := root.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		if err := root.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial, parallel := build(false), build(true)
	if serial != parallel {
		t.Fatalf("export differs between serial and concurrent unit creation:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestCounterTotals verifies subtree aggregation: values sum by name
// across nodes, names keep first-seen walk order, and the result is
// identical whether units were created in or out of index order.
func TestCounterTotals(t *testing.T) {
	build := func(reversed bool) *Recorder {
		root := NewRecorder("exp")
		root.AddCounter("runs", 1)
		grp := root.Group("fan")
		order := []int{0, 1, 2}
		if reversed {
			order = []int{2, 1, 0}
		}
		for _, i := range order {
			u := grp.Unit(i, "")
			u.AddCounter("completed", float64(10*(i+1)))
			if i == 1 {
				u.AddCounter("dropped", 7)
			}
		}
		return root
	}
	got := build(false).CounterTotals()
	want := []Metric{{Name: "runs", Value: 1}, {Name: "completed", Value: 60}, {Name: "dropped", Value: 7}}
	if len(got) != len(want) {
		t.Fatalf("CounterTotals = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CounterTotals[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	rev := build(true).CounterTotals()
	for i := range want {
		if rev[i] != want[i] {
			t.Fatalf("reversed-creation CounterTotals[%d] = %v, want %v", i, rev[i], want[i])
		}
	}
}

// TestWriteFiles verifies the three artifacts land on disk.
func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	if err := buildSample().WriteFiles(dir, "exp"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"exp.events.jsonl", "exp.metrics.prom", "exp.trace.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}
