package autoscaler

import (
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// rig deploys a cart-only Sock Shop under closed-loop load.
type rig struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	loop *workload.ClosedLoop
}

func newRig(t *testing.T, seed uint64, users int, cores float64, threads int) *rig {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := topology.DefaultSockShop()
	cfg.CartCores = cores
	cfg.CartThreads = threads
	app := topology.SockShop(cfg)
	app.Mix = topology.CartOnlyMix(app)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(users),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start()
	return &rig{k: k, c: c, loop: loop}
}

func (r *rig) shutdown() {
	r.loop.Stop()
	r.k.Run()
}

// drive steps the scaler every period for the duration.
func drive(r *rig, s interface {
	Step(sim.Time) bool
}, period, dur time.Duration) int {
	changes := 0
	tick := r.k.Every(period, func() {
		if s.Step(r.k.Now()) {
			changes++
		}
	})
	r.k.RunUntil(r.k.Now() + sim.Time(dur))
	tick.Stop()
	return changes
}

func TestFIRMScalesUpUnderSLOViolation(t *testing.T) {
	// 2-core cart with tight threads and 1800 users: heavy overload.
	r := newRig(t, 1, 1800, 2, 40)
	firm, err := NewFIRM(r.c, FIRMConfig{Service: topology.Cart, SLO: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	changes := drive(r, firm, 15*time.Second, 2*time.Minute)
	svc, _ := r.c.Service(topology.Cart)
	if svc.Cores() != 4 {
		t.Errorf("cart cores = %g, want scaled up to 4", svc.Cores())
	}
	if changes == 0 {
		t.Error("no scaling decisions recorded")
	}
	if firm.level != 1 {
		t.Errorf("ladder level = %d, want 1", firm.level)
	}
	r.shutdown()
}

func TestFIRMScalesDownWhenCalm(t *testing.T) {
	r := newRig(t, 2, 50, 4, 40) // nearly idle 4-core cart
	firm, err := NewFIRM(r.c, FIRMConfig{Service: topology.Cart, SLO: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	firm.level = 1 // start at the top of the {2,4} ladder
	drive(r, firm, 15*time.Second, 3*time.Minute)
	svc, _ := r.c.Service(topology.Cart)
	if svc.Cores() != 2 {
		t.Errorf("cart cores = %g, want scaled down to 2", svc.Cores())
	}
	r.shutdown()
}

func TestFIRMDoesNotTouchSoftResources(t *testing.T) {
	r := newRig(t, 3, 1800, 2, 5)
	firm, err := NewFIRM(r.c, FIRMConfig{Service: topology.Cart, SLO: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	drive(r, firm, 15*time.Second, 2*time.Minute)
	size, _ := r.c.PoolSize(cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads})
	if size != 5 {
		t.Errorf("FIRM changed the thread pool: %d", size)
	}
	r.shutdown()
}

func TestFIRMConfigValidation(t *testing.T) {
	r := newRig(t, 4, 10, 2, 5)
	if _, err := NewFIRM(nil, FIRMConfig{Service: topology.Cart, SLO: time.Second}); err == nil {
		t.Error("nil cluster: expected error")
	}
	if _, err := NewFIRM(r.c, FIRMConfig{Service: "ghost", SLO: time.Second}); err == nil {
		t.Error("unknown service: expected error")
	}
	if _, err := NewFIRM(r.c, FIRMConfig{Service: topology.Cart}); err == nil {
		t.Error("zero SLO: expected error")
	}
	if _, err := NewFIRM(r.c, FIRMConfig{Service: topology.Cart, SLO: time.Second, Ladder: []float64{4, 2}}); err == nil {
		t.Error("non-increasing ladder: expected error")
	}
	r.shutdown()
}

func TestHPAScalesOutUnderLoad(t *testing.T) {
	r := newRig(t, 5, 1800, 2, 0) // unlimited threads: pure CPU pressure
	hpa, err := NewHPA(r.c, HPAConfig{Service: topology.Cart, MaxReplicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	drive(r, hpa, 15*time.Second, 2*time.Minute)
	svc, _ := r.c.Service(topology.Cart)
	if svc.Replicas() < 2 {
		t.Errorf("replicas = %d, want scaled out", svc.Replicas())
	}
	r.shutdown()
}

func TestHPAScaleDownNeedsStabilization(t *testing.T) {
	r := newRig(t, 6, 30, 2, 0)
	hpa, err := NewHPA(r.c, HPAConfig{
		Service:     topology.Cart,
		MaxReplicas: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.c.SetReplicas(topology.Cart, 4); err != nil {
		t.Fatal(err)
	}
	svc, _ := r.c.Service(topology.Cart)
	// One early step must not scale down (stabilization pending).
	r.k.RunUntil(sim.Time(15 * time.Second))
	hpa.Step(r.k.Now())
	r.k.RunUntil(sim.Time(30 * time.Second))
	hpa.Step(r.k.Now())
	if svc.Replicas() != 4 {
		t.Errorf("replicas dropped to %d before stabilization window", svc.Replicas())
	}
	// After the window, scale-down may proceed.
	drive(r, hpa, 15*time.Second, 2*time.Minute)
	if svc.Replicas() >= 4 {
		t.Errorf("replicas = %d, want scaled down after sustained calm", svc.Replicas())
	}
	r.shutdown()
}

func TestHPAConfigValidation(t *testing.T) {
	r := newRig(t, 7, 10, 2, 5)
	if _, err := NewHPA(nil, HPAConfig{Service: topology.Cart}); err == nil {
		t.Error("nil cluster: expected error")
	}
	if _, err := NewHPA(r.c, HPAConfig{Service: "ghost"}); err == nil {
		t.Error("unknown service: expected error")
	}
	r.shutdown()
}

// TestHPAToleranceBand pins that the band 1±hpaTolerance, folded
// exactly at compile time, is the float64 pair the run-time sums over a
// float64 tolerance give.
func TestHPAToleranceBand(t *testing.T) {
	tol := float64(hpaTolerance)
	if lo, hi := 1-tol, 1+tol; lo != 1-hpaTolerance || hi != 1+hpaTolerance {
		t.Errorf("band (%v, %v) at run time, (%v, %v) folded", lo, hi, 1-hpaTolerance, 1+hpaTolerance)
	}
}

func TestVPAStepsUpAndDown(t *testing.T) {
	r := newRig(t, 8, 1800, 2, 0)
	vpa, err := NewVPA(r.c, VPAConfig{Service: topology.Cart, MinCores: 2, MaxCores: 6})
	if err != nil {
		t.Fatal(err)
	}
	drive(r, vpa, 15*time.Second, 2*time.Minute)
	svc, _ := r.c.Service(topology.Cart)
	upCores := svc.Cores()
	if upCores <= 2 {
		t.Errorf("cores = %g, want stepped up", upCores)
	}
	// Quiesce the workload: VPA must step back down.
	r.loop.Stop()
	quiet, err := workload.NewClosedLoop(r.k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(20),
		Submit: func(done func()) { r.c.SubmitMixWith(done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet.Start()
	drive(r, vpa, 15*time.Second, 3*time.Minute)
	if svc.Cores() >= upCores {
		t.Errorf("cores = %g, want stepped down from %g", svc.Cores(), upCores)
	}
	quiet.Stop()
	r.k.Run()
}

func TestVPAConfigValidation(t *testing.T) {
	r := newRig(t, 9, 10, 2, 5)
	if _, err := NewVPA(nil, VPAConfig{Service: topology.Cart}); err == nil {
		t.Error("nil cluster: expected error")
	}
	if _, err := NewVPA(r.c, VPAConfig{Service: "ghost"}); err == nil {
		t.Error("unknown service: expected error")
	}
	if _, err := NewVPA(r.c, VPAConfig{Service: topology.Cart, MinCores: 8, MaxCores: 2}); err == nil {
		t.Error("max < min: expected error")
	}
	r.shutdown()
}

// Interface compliance with the core controller.
var (
	_ core.HardwareScaler = (*FIRMScaler)(nil)
	_ core.HardwareScaler = (*HPAScaler)(nil)
	_ core.HardwareScaler = (*VPAScaler)(nil)
)
