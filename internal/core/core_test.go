package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// cartRig deploys Sock Shop driving only the Cart service under a
// closed-loop population, with a monitor tracking Cart's thread pool.
type cartRig struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	mon  *Monitor
	loop *workload.ClosedLoop
	ref  cluster.ResourceRef
}

func newCartRig(t *testing.T, seed uint64, threads, users int, cores float64) *cartRig {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := topology.DefaultSockShop()
	cfg.CartThreads = threads
	cfg.CartCores = cores
	app := topology.SockShop(cfg)
	app.Mix = topology.CartOnlyMix(app)
	c, err := cluster.New(k, app, cluster.Options{})
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
	return &cartRig{k: k, c: c, mon: mon, loop: loop, ref: ref}
}

func (r *cartRig) runFor(d time.Duration) { r.k.RunUntil(r.k.Now() + sim.Time(d)) }

func (r *cartRig) shutdown() {
	r.loop.Stop()
	r.mon.Stop()
	r.k.Run()
}

func TestMonitorSamplesConcurrencyAndUtil(t *testing.T) {
	r := newCartRig(t, 1, 10, 400, 2)
	r.runFor(10 * time.Second)
	conc, err := r.mon.Concurrency(r.ref)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Len() < 90 {
		t.Errorf("concurrency samples = %d, want ~100 at 100ms over 10s", conc.Len())
	}
	pts := conc.Window(0, r.k.Now())
	var maxQ float64
	for _, p := range pts {
		if p.V < 0 {
			t.Fatalf("negative concurrency sample %v", p)
		}
		if p.V > maxQ {
			maxQ = p.V
		}
	}
	if maxQ == 0 {
		t.Error("concurrency never rose above zero under load")
	}
	if maxQ > 10 {
		t.Errorf("concurrency %g exceeded thread pool 10", maxQ)
	}
	util := r.mon.MeanUtil(topology.Cart, 0, r.k.Now())
	if util <= 0.05 || util > 1.0 {
		t.Errorf("cart mean util = %g, want in (0.05, 1]", util)
	}
	r.shutdown()
}

func TestMonitorErrors(t *testing.T) {
	k := sim.NewKernel(2)
	app := topology.SockShop(topology.DefaultSockShop())
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMonitor(nil, 0, nil, nil); err == nil {
		t.Error("nil cluster: expected error")
	}
	if _, err := NewMonitor(c, 0, []cluster.ResourceRef{{Service: "ghost", Kind: cluster.PoolThreads}}, nil); err == nil {
		t.Error("unknown service: expected error")
	}
	if _, err := NewMonitor(c, 0, nil, []string{"ghost"}); err == nil {
		t.Error("unknown util service: expected error")
	}
	mon, err := NewMonitor(c, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Concurrency(cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}); err == nil {
		t.Error("untracked resource: expected error")
	}
}

// TestMonitorAndSCGDeclareRetention: a monitor given resources and an
// SCG model declare the cluster's warehouse; a monitor without
// resources does not and samples without it. After the cluster's first
// request, both constructors refuse to declare it late.
func TestMonitorAndSCGDeclareRetention(t *testing.T) {
	app := topology.SockShop(topology.DefaultSockShop())
	app.Mix = topology.CartOnlyMix(app)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	build := func(refs []cluster.ResourceRef) (*sim.Kernel, *cluster.Cluster, *Monitor) {
		k := sim.NewKernel(3)
		c, err := cluster.New(k, app, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mon, err := NewMonitor(c, 0, refs, c.ServiceNames())
		if err != nil {
			t.Fatal(err)
		}
		return k, c, mon
	}
	if _, c, _ := build([]cluster.ResourceRef{ref}); c.Warehouse() == nil {
		t.Error("a monitor with a resource did not declare the warehouse")
	}
	_, c, mon := build(nil)
	if c.Warehouse() != nil {
		t.Fatal("a monitor without resources declared the warehouse")
	}
	if _, err := NewSCG(c, mon, SCGConfig{SLA: time.Second}); err != nil || c.Warehouse() == nil {
		t.Errorf("NewSCG before the run: %v, warehouse declared %v", err, c.Warehouse() != nil)
	}

	k, c, mon := build(nil)
	mon.Start()
	for i := range 50 {
		k.Schedule(time.Duration(i)*10*time.Millisecond, c.SubmitMix)
	}
	k.RunUntil(sim.Time(2 * time.Second))
	mon.Stop()
	if c.Completed() == 0 || c.Warehouse() != nil {
		t.Fatalf("completed %d with warehouse %v; want completions and none", c.Completed(), c.Warehouse())
	}
	if _, err := NewSCG(c, mon, SCGConfig{SLA: time.Second}); err == nil {
		t.Error("NewSCG after the first request: expected an error")
	}
	// The cart mix never visits Catalogue, yet its span log, too, is
	// declared after the first request.
	idle := cluster.ResourceRef{Service: topology.Catalogue, Kind: cluster.PoolThreads}
	if _, err := NewMonitor(c, 0, []cluster.ResourceRef{idle}, nil); err == nil || !strings.Contains(err.Error(), "after the first request") {
		t.Errorf("NewMonitor with a resource after the first request = %v, want the declaration error", err)
	}
}

func TestCriticalServiceLocalizesCart(t *testing.T) {
	// Cart-only workload at heavy load: the critical service must be
	// cart (or its database under extreme conditions, but with a 24-core
	// cart-db it is the 2-core cart that bottlenecks).
	r := newCartRig(t, 3, 10, 900, 2)
	r.runFor(90 * time.Second)
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	critical, err := scg.CriticalService(r.k.Now())
	if err != nil {
		t.Fatal(err)
	}
	if critical != topology.Cart {
		t.Errorf("critical service = %q, want cart", critical)
	}
	r.shutdown()
}

func TestPropagateDeadline(t *testing.T) {
	r := newCartRig(t, 4, 10, 600, 2)
	r.runFor(60 * time.Second)
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rtt, err := scg.PropagateDeadline(r.k.Now(), topology.Cart)
	if err != nil {
		t.Fatal(err)
	}
	// Front-end PT is ~0.5ms, so the cart threshold must be SLA minus a
	// small upstream share: within (200ms, 250ms).
	if rtt <= 200*time.Millisecond || rtt >= 250*time.Millisecond {
		t.Errorf("propagated RTT = %v, want in (200ms, 250ms)", rtt)
	}
	// Deeper service: cart-db threshold must be strictly smaller.
	rttDB, err := scg.PropagateDeadline(r.k.Now(), topology.CartDB)
	if err != nil {
		t.Fatal(err)
	}
	if rttDB >= rtt {
		t.Errorf("cart-db RTT %v not below cart RTT %v", rttDB, rtt)
	}
	if _, err := scg.PropagateDeadline(r.k.Now(), topology.Payment); err == nil {
		t.Error("service never on critical path: expected error")
	}
	r.shutdown()
}

func TestPropagateDeadlineFloor(t *testing.T) {
	r := newCartRig(t, 5, 10, 600, 2)
	r.runFor(30 * time.Second)
	// An absurdly tight SLA must floor at MinThreshold, not go negative.
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	rtt, err := scg.PropagateDeadline(r.k.Now(), topology.Cart)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != time.Millisecond {
		t.Errorf("floored RTT = %v, want 1ms", rtt)
	}
	r.shutdown()
}

func TestSCGCollectAndEstimate(t *testing.T) {
	// Generous thread pool and near-saturation load: concurrency roams
	// across a wide range, tracing out the goodput curve. With a tight
	// SLA, the plateau ends where spans outgrow the propagated deadline
	// (the simulated Cart's span is roughly Q milliseconds at high
	// concurrency), so the estimate must land well below the pool size.
	r := newCartRig(t, 6, 60, 800, 2)
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: 60 * time.Millisecond, Window: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r.runFor(3 * time.Minute)
	threshold, err := scg.PropagateDeadline(r.k.Now(), topology.Cart)
	if err != nil {
		t.Fatal(err)
	}
	qs, gps, err := scg.CollectPairs(r.k.Now(), r.ref, topology.Cart, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) < 100 {
		t.Fatalf("only %d pairs collected", len(qs))
	}
	res, err := scg.Estimate(qs, gps)
	if err != nil {
		t.Fatal(err)
	}
	if res.X < 5 || res.X > 100 {
		t.Errorf("estimated optimal concurrency = %g, want in [5, 100]", res.X)
	}
	r.shutdown()
}

func TestSCGEstimateThresholdSensitive(t *testing.T) {
	// The paper's Figure 7 property: a tighter deadline moves the
	// optimal concurrency down.
	r := newCartRig(t, 61, 60, 800, 2)
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: time.Second, Window: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r.runFor(3 * time.Minute)
	estimate := func(threshold time.Duration) float64 {
		qs, gps, err := scg.CollectPairs(r.k.Now(), r.ref, topology.Cart, threshold)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scg.Estimate(qs, gps)
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	tight := estimate(30 * time.Millisecond)
	loose := estimate(300 * time.Millisecond)
	if tight >= loose {
		t.Errorf("tight-threshold optimum %g not below loose-threshold optimum %g", tight, loose)
	}
	r.shutdown()
}

func TestSCGRecommendPipeline(t *testing.T) {
	r := newCartRig(t, 7, 60, 800, 2)
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: 250 * time.Millisecond, Window: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r.runFor(2 * time.Minute)
	rec, err := scg.Recommend(r.k.Now(), []ManagedResource{{Ref: r.ref, Min: 2, Max: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CriticalService != topology.Cart {
		t.Errorf("critical = %q, want cart", rec.CriticalService)
	}
	if rec.OptimalConcurrency < 2 || rec.OptimalConcurrency > 200 {
		t.Errorf("recommendation %d outside clamp", rec.OptimalConcurrency)
	}
	if rec.Threshold <= 0 {
		t.Error("SCG recommendation carries no threshold")
	}
	if rec.Pairs < 50 {
		t.Errorf("pairs = %d", rec.Pairs)
	}
	r.shutdown()
}

func TestSCTRecommendIgnoresLatency(t *testing.T) {
	r := newCartRig(t, 8, 60, 800, 2)
	sct, err := NewSCT(r.c, r.mon, SCGConfig{SLA: 250 * time.Millisecond, Window: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r.runFor(2 * time.Minute)
	rec, err := sct.Recommend(r.k.Now(), []ManagedResource{{Ref: r.ref, Min: 2, Max: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Threshold != 0 {
		t.Errorf("SCT recommendation has threshold %v, want 0", rec.Threshold)
	}
	if rec.OptimalConcurrency < 2 {
		t.Errorf("recommendation %d", rec.OptimalConcurrency)
	}
	r.shutdown()
}

func TestSCTIsThresholdInsensitive(t *testing.T) {
	// The latency-agnostic SCT baseline produces the same allocation no
	// matter the SLA — the defect the SCG model exists to fix.
	r := newCartRig(t, 9, 60, 800, 2)
	managed := []ManagedResource{{Ref: r.ref, Min: 2, Max: 300}}
	// Both models read 3 minutes back, so both declare that reach
	// before the run.
	model := func(sla time.Duration) *SCTModel {
		sct, err := NewSCT(r.c, r.mon, SCGConfig{SLA: sla, Window: 3 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		return sct
	}
	tightModel, looseModel := model(30*time.Millisecond), model(500*time.Millisecond)
	r.runFor(3 * time.Minute)
	recommend := func(sct *SCTModel) int {
		rec, err := sct.Recommend(r.k.Now(), managed)
		if err != nil {
			t.Fatal(err)
		}
		if rec.GoodFrac != 1 {
			t.Errorf("SCT GoodFrac = %g, want 1 (latency-agnostic)", rec.GoodFrac)
		}
		return rec.OptimalConcurrency
	}
	tight := recommend(tightModel)
	loose := recommend(looseModel)
	if tight != loose {
		t.Errorf("SCT recommendation changed with SLA: %d vs %d", tight, loose)
	}
	r.shutdown()
}

func TestSCGConstructorErrors(t *testing.T) {
	r := newCartRig(t, 10, 5, 10, 2)
	if _, err := NewSCG(nil, r.mon, SCGConfig{SLA: time.Second}); err == nil {
		t.Error("nil cluster: expected error")
	}
	if _, err := NewSCG(r.c, nil, SCGConfig{SLA: time.Second}); err == nil {
		t.Error("nil monitor: expected error")
	}
	if _, err := NewSCG(r.c, r.mon, SCGConfig{}); err == nil {
		t.Error("zero SLA: expected error")
	}
	scg, err := NewSCG(r.c, r.mon, SCGConfig{SLA: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Cold start: no traces yet.
	if _, err := scg.CriticalService(r.k.Now()); err == nil {
		t.Error("cold start: expected error")
	}
	r.shutdown()
}

func TestManagedResourceHelpers(t *testing.T) {
	res := ManagedResource{
		Ref: cluster.ResourceRef{Service: "home-timeline", Kind: cluster.PoolClientConns, Target: "post-storage"},
	}
	if got := res.MeasuredService(); got != "post-storage" {
		t.Errorf("client pool measured service = %q, want callee", got)
	}
	res2 := ManagedResource{Ref: cluster.ResourceRef{Service: "cart", Kind: cluster.PoolThreads}}
	if got := res2.MeasuredService(); got != "cart" {
		t.Errorf("measured service = %q, want cart", got)
	}
	clamp := ManagedResource{Min: 5, Max: 50}
	for _, tt := range []struct{ in, want int }{{1, 5}, {5, 5}, {30, 30}, {50, 50}, {99, 50}} {
		if got := clamp.Clamp(tt.in); got != tt.want {
			t.Errorf("Clamp(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
	noMax := ManagedResource{}
	if got := noMax.Clamp(0); got != 1 {
		t.Errorf("Clamp(0) with no bounds = %d, want 1", got)
	}
	if got := noMax.Clamp(1000); got != 1000 {
		t.Errorf("Clamp(1000) with no max = %d", got)
	}
}

// fixedModel always recommends the same setting, for controller tests.
type fixedModel struct {
	rec  Recommendation
	err  error
	call int
}

func (f *fixedModel) Recommend(sim.Time, []ManagedResource) (Recommendation, error) {
	f.call++
	return f.rec, f.err
}

// flipScaler reports a hardware change on its first step only.
type flipScaler struct{ steps int }

func (s *flipScaler) Name() string { return "flip" }
func (s *flipScaler) Step(sim.Time) bool {
	s.steps++
	return s.steps == 1
}

func TestControllerAppliesRecommendation(t *testing.T) {
	r := newCartRig(t, 11, 5, 100, 2)
	model := &fixedModel{rec: Recommendation{
		CriticalService:    topology.Cart,
		Resource:           r.ref,
		OptimalConcurrency: 25,
		Threshold:          100 * time.Millisecond,
		Pairs:              600,
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
	size, err := r.c.PoolSize(r.ref)
	if err != nil {
		t.Fatal(err)
	}
	if size != 25 {
		t.Errorf("pool size = %d, want 25", size)
	}
	events := ctl.Events()
	if len(events) != 1 {
		t.Fatalf("adaptations = %d, want exactly 1 (no re-apply at same value)", len(events))
	}
	if events[0].From != 5 || events[0].To != 25 {
		t.Errorf("event = %+v", events[0])
	}
	if events[0].String() == "" {
		t.Error("empty event string")
	}
	r.shutdown()
}

func TestControllerWarmupSuppressesAdaptation(t *testing.T) {
	r := newCartRig(t, 12, 5, 100, 2)
	model := &fixedModel{rec: Recommendation{Resource: r.ref, OptimalConcurrency: 25}}
	ctl, err := NewController(r.c, ControllerConfig{
		Model:   model,
		Managed: []ManagedResource{{Ref: r.ref}},
		Warmup:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	r.runFor(30 * time.Second)
	ctl.Stop()
	if model.call != 0 {
		t.Errorf("model consulted %d times during warmup", model.call)
	}
	if size, _ := r.c.PoolSize(r.ref); size != 5 {
		t.Errorf("pool changed during warmup: %d", size)
	}
	r.shutdown()
}

func TestControllerHysteresis(t *testing.T) {
	r := newCartRig(t, 13, 20, 100, 2)
	// 22 is within 15% of 20: must be ignored.
	model := &fixedModel{rec: Recommendation{Resource: r.ref, OptimalConcurrency: 22}}
	ctl, err := NewController(r.c, ControllerConfig{
		Model:   model,
		Managed: []ManagedResource{{Ref: r.ref}},
		Warmup:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	r.runFor(20 * time.Second)
	ctl.Stop()
	if size, _ := r.c.PoolSize(r.ref); size != 20 {
		t.Errorf("hysteresis did not hold: pool = %d", size)
	}
	if len(ctl.Events()) != 0 {
		t.Errorf("events = %v", ctl.Events())
	}
	r.shutdown()
}

func TestControllerAppliesAfterHardwareChange(t *testing.T) {
	r := newCartRig(t, 14, 20, 100, 2)
	// Within hysteresis band, but the first period carries a hardware
	// change, which must force the reallocation through.
	model := &fixedModel{rec: Recommendation{Resource: r.ref, OptimalConcurrency: 22}}
	scaler := &flipScaler{}
	ctl, err := NewController(r.c, ControllerConfig{
		Model:   model,
		Scaler:  scaler,
		Managed: []ManagedResource{{Ref: r.ref}},
		Warmup:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	r.runFor(16 * time.Second)
	ctl.Stop()
	if size, _ := r.c.PoolSize(r.ref); size != 22 {
		t.Errorf("pool = %d, want 22 applied right after hardware change", size)
	}
	if ctl.HardwareChanges() != 1 {
		t.Errorf("hw changes = %d, want 1", ctl.HardwareChanges())
	}
	r.shutdown()
}

func TestControllerRecordsModelErrors(t *testing.T) {
	r := newCartRig(t, 15, 5, 100, 2)
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
	n, last := ctl.ModelErrors()
	if n == 0 || last == nil {
		t.Errorf("errors = %d, last = %v", n, last)
	}
	r.shutdown()
}

var errForTest = errors.New("model intentionally failing")

func TestControllerConstructorErrors(t *testing.T) {
	r := newCartRig(t, 16, 5, 10, 2)
	model := &fixedModel{}
	if _, err := NewController(nil, ControllerConfig{Model: model, Managed: []ManagedResource{{Ref: r.ref}}}); err == nil {
		t.Error("nil cluster: expected error")
	}
	if _, err := NewController(r.c, ControllerConfig{Managed: []ManagedResource{{Ref: r.ref}}}); err == nil {
		t.Error("nil model: expected error")
	}
	if _, err := NewController(r.c, ControllerConfig{Model: model}); err == nil {
		t.Error("no managed resources: expected error")
	}
	bad := cluster.ResourceRef{Service: "ghost", Kind: cluster.PoolThreads}
	if _, err := NewController(r.c, ControllerConfig{Model: model, Managed: []ManagedResource{{Ref: bad}}}); err == nil {
		t.Error("unknown resource: expected error")
	}
	r.shutdown()
}
