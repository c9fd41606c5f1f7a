package scenario

import (
	"testing"
	"time"

	"sora/internal/topology"
	"sora/internal/workload"
)

// TestStrategyRule: with neither scaler nor model the run is static;
// with only a scaler, the scaler steps on its own ticker; with a model,
// the controller owns the scaler.
func TestStrategyRule(t *testing.T) {
	cores := func(s Scenario) (float64, *Rig) {
		t.Helper()
		s.Seed = 1
		s.Target = workload.ConstantUsers(1800)
		s.Duration = 40 * time.Second
		r, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		cart, err := r.C.Service(topology.Cart)
		if err != nil {
			t.Fatal(err)
		}
		return cart.Cores(), r
	}
	cfg := topology.DefaultSockShop()
	cfg.CartThreads = 40 // roomy pool: the load turns into CPU pressure
	static := SockShopCart(cfg, SLA)
	static.Scaler, static.Model = nil, nil
	if got, r := cores(static); got != cfg.CartCores || r.Ctl != nil {
		t.Errorf("static: cart cores %g, controller %v; want %g and none", got, r.Ctl, cfg.CartCores)
	}
	scaled := SockShopCart(cfg, SLA)
	scaled.Model = nil
	if got, r := cores(scaled); got <= cfg.CartCores || r.Ctl != nil {
		t.Errorf("scaler only: cart cores %g, controller %v; want FIRM to scale up on its own", got, r.Ctl)
	}
	if _, r := cores(SockShopCart(cfg, SLA)); r.Ctl == nil {
		t.Error("model: no controller")
	}
}

// TestBuildRejectsMissingTarget: a scenario without load is an error,
// not a silent empty run.
func TestBuildRejectsMissingTarget(t *testing.T) {
	if _, err := SockShopCart(topology.DefaultSockShop(), SLA).Build(); err == nil {
		t.Fatal("Build accepted a scenario without a workload target")
	}
}
