package core_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"sora/internal/core"
	"sora/internal/scenario"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

// TestModelReachMovesNoDecision: the chaos rig (Sock Shop cart, combo
// faults, FIRM plus SCG over a 45 s window) keeps traces and completion
// logs only as far back as its monitor, model and scaler read, and over
// a run long enough to evict and prune it decides exactly as a rig
// whose cluster declared trace.DefaultRetention first for all three
// (the warehouse through its telemetry recorder): the same adaptation
// events, thresholds included, and the same completions, of which the
// short rig's end-to-end log keeps the newest.
func TestModelReachMovesNoDecision(t *testing.T) {
	const dur = 100 * time.Second
	run := func(tel *telemetry.Recorder) *scenario.Rig {
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = 10
		s := scenario.SockShopCart(cfg, scenario.SLA)
		s.Seed = 1
		s.Target = workload.ConstantUsers(900)
		s.Duration = dur
		s.FaultPlan = "combo"
		s.Telemetry = tel
		r, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if tel != nil {
			if err := r.C.RecordCompletions(trace.DefaultRetention); err != nil {
				t.Fatal(err)
			}
			for _, ref := range s.Refs {
				if err := r.C.RecordSpans(core.ManagedResource{Ref: ref}.MeasuredService(), trace.DefaultRetention); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.Run()
		return r
	}
	reach, kept := run(nil), run(telemetry.NewRecorder("reach"))
	if st := reach.C.Warehouse().Stats(); st.Evicted == 0 {
		t.Fatalf("the model's reach evicted nothing over %v: %+v", dur, st)
	}
	if st := kept.C.Warehouse().Stats(); st.Evicted != 0 {
		t.Fatalf("a %v warehouse evicted over %v: %+v", trace.DefaultRetention, dur, st)
	}
	got, want := reach.Ctl.Events(), kept.Ctl.Events()
	if len(want) == 0 {
		t.Fatal("the controller adapted nothing; the run decides too little to compare")
	}
	if !slices.Equal(got, want) {
		t.Errorf("adaptation events with the model's reach:\n%v\nwith %v retention:\n%v", got, trace.DefaultRetention, want)
	}
	a, b := reach.E2E.Window(math.MinInt64, math.MaxInt64), kept.E2E.Window(math.MinInt64, math.MaxInt64)
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Errorf("run completions differ: %d entries with the model's reach, %d with %v retention", len(a), len(b), trace.DefaultRetention)
	}
	a, b = reach.C.Completions().Window(math.MinInt64, math.MaxInt64), kept.C.Completions().Window(math.MinInt64, math.MaxInt64)
	if len(a) == 0 || len(a) >= len(b) {
		t.Fatalf("the end-to-end log kept %d entries with the readers' reach, %d with %v: it pruned nothing", len(a), len(b), trace.DefaultRetention)
	}
	if !slices.Equal(a, b[len(b)-len(a):]) {
		t.Errorf("the %d entries the end-to-end log kept are not the newest of the %v log's", len(a), trace.DefaultRetention)
	}
}
