package core

import (
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/knee"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// newAuditRig is newCartRig plus a telemetry recorder on the cluster, for
// the controller decision-audit tests.
func newAuditRig(t *testing.T, seed uint64, threads, users int) (*cartRig, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.NewRecorder("audit")
	k := sim.NewKernel(seed)
	cfg := topology.DefaultSockShop()
	cfg.CartThreads = threads
	cfg.CartCores = 2
	app := topology.SockShop(cfg)
	app.Mix = topology.CartOnlyMix(app)
	c, err := cluster.New(k, app, cluster.Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	mon, err := NewMonitor(c, 0, []cluster.ResourceRef{ref}, c.ServiceNames())
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(users),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start()
	return &cartRig{k: k, c: c, mon: mon, loop: loop, ref: ref}, rec
}

// decisions filters the recorder's event stream down to one kind.
func eventsOfKind(rec *telemetry.Recorder, kind string) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// attrMap flattens an event's attributes for assertion convenience.
func attrMap(ev telemetry.Event) map[string]string {
	m := make(map[string]string, len(ev.Attrs))
	for _, a := range ev.Attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// TestControllerDecisionAudit verifies that every post-warmup adapt step
// emits exactly one controller.decision event carrying the model's full
// inputs, that the first evaluation applies and subsequent steady-state
// evaluations hold, and that Events() stays consistent with the audit.
func TestControllerDecisionAudit(t *testing.T) {
	r, rec := newAuditRig(t, 21, 5, 100)
	model := &fixedModel{rec: Recommendation{
		CriticalService:    topology.Cart,
		Resource:           r.ref,
		OptimalConcurrency: 25,
		Threshold:          100 * time.Millisecond,
		Knee:               knee.Result{X: 25.4, Y: 800},
		Pairs:              600,
		GoodFrac:           0.95,
		MaxQWindow:         30,
		MaxQRetention:      32,
	}}
	ctl, err := NewController(r.c, ControllerConfig{
		Model:   model,
		Managed: []ManagedResource{{Ref: r.ref}},
		Warmup:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	r.runFor(30 * time.Second)
	ctl.Stop()
	r.shutdown()

	decisions := eventsOfKind(rec, "controller.decision")
	if len(decisions) != model.call {
		t.Fatalf("decision events = %d, model consultations = %d; want exactly one per adapt step",
			len(decisions), model.call)
	}
	if len(decisions) < 2 {
		t.Fatalf("only %d adapt steps in 30s at 5s period", len(decisions))
	}
	// Events must be in virtual-time order.
	for i := 1; i < len(decisions); i++ {
		if decisions[i].At < decisions[i-1].At {
			t.Fatalf("decision %d at %v precedes %d at %v", i, decisions[i].At, i-1, decisions[i-1].At)
		}
	}
	// String attributes render JSON-quoted via Attr.Value.
	first := attrMap(decisions[0])
	wantFirst := map[string]string{
		"applied":  "true",
		"reason":   `"apply-knee"`,
		"branch":   `"apply-knee"`,
		"current":  "5",
		"target":   "25",
		"to":       "25",
		"delta":    "20",
		"opt":      "25",
		"critical": `"cart"`,
		"pairs":    "600",
		"knee_x":   "25.4",
	}
	for k, want := range wantFirst {
		if got := first[k]; got != want {
			t.Errorf("first decision %s = %s, want %s", k, got, want)
		}
	}
	if first["threshold_ms"] != "100" {
		t.Errorf("threshold_ms = %s, want 100", first["threshold_ms"])
	}
	// Steady state afterwards: model keeps recommending 25, pool is 25,
	// so every later decision must be a hold with applied=false.
	for i, d := range decisions[1:] {
		m := attrMap(d)
		if m["applied"] != "false" || m["reason"] != `"hold-steady"` {
			t.Errorf("decision %d: applied=%s reason=%s, want false/hold-steady", i+1, m["applied"], m["reason"])
		}
	}
	// Exactly one adaptation event recorded by the controller, matching
	// the one applied decision.
	if n := len(ctl.Events()); n != 1 {
		t.Fatalf("ctl.Events() = %d, want 1", n)
	}
	ev := ctl.Events()[0]
	if ev.From != 5 || ev.To != 25 || ev.CriticalService != topology.Cart || ev.Pairs != 600 {
		t.Errorf("adaptation event = %+v", ev)
	}
}

// TestControllerErrorAudit verifies failed model consultations publish
// controller.error events with the stage that failed.
func TestControllerErrorAudit(t *testing.T) {
	r, rec := newAuditRig(t, 22, 5, 100)
	model := &fixedModel{err: errForTest}
	ctl, err := NewController(r.c, ControllerConfig{
		Model:   model,
		Managed: []ManagedResource{{Ref: r.ref}},
		Warmup:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	r.runFor(16 * time.Second)
	ctl.Stop()
	r.shutdown()

	errs := eventsOfKind(rec, "controller.error")
	if len(errs) == 0 {
		t.Fatal("no controller.error events for a failing model")
	}
	if len(eventsOfKind(rec, "controller.decision")) != 0 {
		t.Error("decision events published despite recommend failures")
	}
	m := attrMap(errs[0])
	if m["stage"] != `"recommend"` {
		t.Errorf("stage = %s, want \"recommend\"", m["stage"])
	}
	if m["error"] == "" {
		t.Error("error attribute missing")
	}
}
