package core

import (
	"testing"
	"time"

	"sora/internal/topology"
)

func TestUnifiedConstructorErrors(t *testing.T) {
	r := newCartRig(t, 30, 5, 10, 2)
	model := &fixedModel{}
	managed := []ManagedResource{{Ref: r.ref}}
	cases := []struct {
		name string
		cfg  UnifiedConfig
	}{
		{"nil model", UnifiedConfig{Managed: managed, Service: topology.Cart, SLO: time.Second}},
		{"no managed", UnifiedConfig{Model: model, Service: topology.Cart, SLO: time.Second}},
		{"unknown service", UnifiedConfig{Model: model, Managed: managed, Service: "ghost", SLO: time.Second}},
		{"zero SLO", UnifiedConfig{Model: model, Managed: managed, Service: topology.Cart}},
		{"bad ladder", UnifiedConfig{Model: model, Managed: managed, Service: topology.Cart, SLO: time.Second, Ladder: []float64{4, 2}}},
	}
	for _, tt := range cases {
		if _, err := NewUnified(r.c, tt.cfg); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
	if _, err := NewUnified(nil, UnifiedConfig{Model: model, Managed: managed, Service: topology.Cart, SLO: time.Second}); err == nil {
		t.Error("nil cluster: expected error")
	}
	r.shutdown()
}

func TestUnifiedCoordinatedScaleUp(t *testing.T) {
	// Overloaded 2-core Cart with a snug pool: the unified controller
	// must move cores 2->4 and grow the pool in the same period instead
	// of waiting for a fresh estimation window.
	r := newCartRig(t, 31, 10, 1600, 2)
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnified(r.c, UnifiedConfig{
		Model:   scg,
		Managed: []ManagedResource{{Ref: r.ref, Min: 2, Max: 200}},
		Service: topology.Cart,
		SLO:     250 * time.Millisecond,
		Warmup:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	r.runFor(3 * time.Minute)
	u.Stop()
	svc, _ := r.c.Service(topology.Cart)
	if svc.Cores() != 4 {
		t.Errorf("cores = %g, want scaled to 4", svc.Cores())
	}
	if u.HardwareChanges() == 0 {
		t.Error("no hardware changes recorded")
	}
	size, _ := r.c.PoolSize(r.ref)
	if size <= 10 {
		t.Errorf("pool = %d, want grown beyond initial 10 alongside the scale-up", size)
	}
	r.shutdown()
}

func TestUnifiedScalesDownWhenCalm(t *testing.T) {
	r := newCartRig(t, 32, 40, 60, 4) // idle 4-core Cart with a big pool
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnified(r.c, UnifiedConfig{
		Model:   scg,
		Managed: []ManagedResource{{Ref: r.ref, Min: 2, Max: 200}},
		Service: topology.Cart,
		SLO:     250 * time.Millisecond,
		Warmup:  20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	r.runFor(4 * time.Minute)
	u.Stop()
	svc, _ := r.c.Service(topology.Cart)
	if svc.Cores() != 2 {
		t.Errorf("cores = %g, want stepped down to 2 when idle", svc.Cores())
	}
	r.shutdown()
}

func TestUnifiedEventsAndErrors(t *testing.T) {
	r := newCartRig(t, 33, 5, 100, 2)
	model := &fixedModel{err: errForTest}
	u, err := NewUnified(r.c, UnifiedConfig{
		Model:   model,
		Managed: []ManagedResource{{Ref: r.ref}},
		Service: topology.Cart,
		SLO:     time.Second,
		Warmup:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	r.runFor(20 * time.Second)
	u.Stop()
	if u.errs == 0 || u.lastErr == nil {
		t.Errorf("errors = %d, last = %v", u.errs, u.lastErr)
	}
	if len(u.Events()) != 0 {
		t.Errorf("events = %v, want none", u.Events())
	}
	r.shutdown()
}
