package cluster

import (
	"strings"
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/telemetry"
)

// flightEvents returns the recorder's events of one kind.
func flightEvents(rec *telemetry.Recorder, kind string) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// attrValue finds one attribute's rendered value ("" if absent).
func attrValue(ev telemetry.Event, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return ""
}

func TestFlightRecorderWindows(t *testing.T) {
	k := sim.NewKernel(1)
	rec := telemetry.NewRecorder("flight")
	c, err := New(k, twoTier(8, 8), Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ArmFlightRecorder(time.Second, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 3 windows of requests, 10 per window start.
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			c.SubmitMix()
		}
		k.RunUntil(k.Now() + sim.Time(time.Second))
	}
	// Partial fourth window.
	c.SubmitMix()
	k.RunUntil(k.Now() + sim.Time(300*time.Millisecond))
	f.Stop()
	k.Run()

	winRows := flightEvents(rec, "timeline.window")
	cluRows := flightEvents(rec, "timeline.cluster")
	// 4 windows (3 full + the partial flushed by Stop) × 2 services.
	if len(cluRows) != 4 {
		t.Fatalf("timeline.cluster rows = %d, want 4", len(cluRows))
	}
	if len(winRows) != 8 {
		t.Fatalf("timeline.window rows = %d, want 8 (2 services × 4 windows)", len(winRows))
	}
	// Service rows alternate in declaration order within each window.
	if got := attrValue(winRows[0], "service"); got != `"frontend"` {
		t.Fatalf("first window row service = %s, want frontend", got)
	}
	if got := attrValue(winRows[1], "service"); got != `"backend"` {
		t.Fatalf("second window row service = %s, want backend", got)
	}
	// The backend row reports its thread pool as the primary resource.
	if got := attrValue(winRows[1], "pool"); !strings.Contains(got, "threads") {
		t.Fatalf("backend pool = %s, want threads ref", got)
	}
	if got := attrValue(winRows[1], "pool_size"); got != "8" {
		t.Fatalf("backend pool_size = %s, want 8", got)
	}
	// First full window: 10 requests → 10 arrivals and completions per
	// service (each request visits frontend and backend once), all
	// completing within the second.
	for _, i := range []int{0, 1} {
		if got := attrValue(winRows[i], "arrivals"); got != "10" {
			t.Fatalf("window row %d arrivals = %s, want 10", i, got)
		}
		if got := attrValue(winRows[i], "completions"); got != "10" {
			t.Fatalf("window row %d completions = %s, want 10", i, got)
		}
	}
	// Cluster row: the e2e split accounts every completion (10 per full
	// window), and the window length is 1s.
	if got := attrValue(cluRows[0], "completed"); got != "10" {
		t.Fatalf("cluster row completed = %s, want 10", got)
	}
	if got := attrValue(cluRows[0], "win_s"); got != "1" {
		t.Fatalf("cluster row win_s = %s, want 1", got)
	}
	// twoTier requests finish in ~10ms, the SLA is 100ms: all good.
	if got := attrValue(cluRows[0], "good"); got != "10" {
		t.Fatalf("cluster row good = %s, want 10", got)
	}
	if got := attrValue(cluRows[0], "violated"); got != "0" {
		t.Fatalf("cluster row violated = %s, want 0", got)
	}
	// Final partial window carries the one late request and win_s 0.3.
	last := cluRows[3]
	if got := attrValue(last, "completed"); got != "1" {
		t.Fatalf("partial window completed = %s, want 1", got)
	}
	if got := attrValue(last, "win_s"); got != "0.3" {
		t.Fatalf("partial window win_s = %s, want 0.3", got)
	}
	// Stop is idempotent and the stopped ticker publishes nothing more.
	f.Stop()
	n := len(rec.Events())
	k.RunUntil(k.Now() + sim.Time(5*time.Second))
	if len(rec.Events()) != n {
		t.Fatal("flight recorder still publishing after Stop")
	}
}

func TestFlightRecorderArmErrors(t *testing.T) {
	k := sim.NewKernel(1)
	c, err := New(k, twoTier(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ArmFlightRecorder(time.Second, time.Second); err == nil {
		t.Fatal("arming without telemetry succeeded")
	}
	rec := telemetry.NewRecorder("flight")
	c2, err := New(k, twoTier(0, 0), Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ArmFlightRecorder(0, time.Second); err == nil {
		t.Fatal("arming with zero window succeeded")
	}
	if _, err := c2.ArmFlightRecorder(time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ArmFlightRecorder(time.Second, time.Second); err == nil {
		t.Fatal("double arm succeeded")
	}
}

// TestFlightRecorderPrimaryRef pins the primary-pool selection rule:
// threads beat db-conns beat the lexicographically smallest client pool.
func TestFlightRecorderPrimaryRef(t *testing.T) {
	cases := []struct {
		spec ServiceSpec
		want string
		has  bool
	}{
		{ServiceSpec{Name: "a", ThreadPool: 4, DBPool: 2}, "a threads", true},
		{ServiceSpec{Name: "b", DBPool: 2}, "b db-conns", true},
		{ServiceSpec{Name: "c", ClientPools: map[string]int{"z": 1, "m": 2}}, "c->m client-conns", true},
		{ServiceSpec{Name: "d"}, "", false},
	}
	for _, tc := range cases {
		ref, ok := primaryRef(tc.spec)
		if ok != tc.has {
			t.Fatalf("%s: has=%v, want %v", tc.spec.Name, ok, tc.has)
		}
		if ok && ref.String() != tc.want {
			t.Fatalf("%s: ref=%q, want %q", tc.spec.Name, ref.String(), tc.want)
		}
	}
}

// TestFlightRecorderAllocFree pins the tentpole guarantee that an armed
// flight recorder adds zero steady-state allocations to the request hot
// path: the arrival/completion/drop hooks and the e2e classifier are
// field increments plus sketch bucket updates. The window is one hour so
// no flush tick (which allocates its per-window events by design) fires
// during measurement; the budget matches TestPhaseRecordingAllocFree.
func TestFlightRecorderAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	rec := telemetry.NewRecorder("flight")
	c, err := New(k, twoTier(8, 8), Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ArmFlightRecorder(time.Hour, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The armed window ticker keeps the event queue non-empty, so advance
	// in bounded steps (always far short of the 1h window) instead of
	// draining with Run.
	step := sim.Time(100 * time.Millisecond)
	for i := 0; i < 64; i++ {
		c.SubmitMix()
		k.RunUntil(k.Now() + step)
	}
	avg := testing.AllocsPerRun(200, func() {
		c.SubmitMix()
		k.RunUntil(k.Now() + step)
	})
	// Measured 0, as on the unarmed path: the window counters and the
	// latency sketch are updated in place.
	if avg != 0 {
		t.Fatalf("steady-state allocations per request with flight recorder armed = %.1f, want 0", avg)
	}
}
