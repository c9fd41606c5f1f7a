package cluster

import (
	"slices"
	"strings"
	"testing"
	"time"

	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/telemetry"
)

// cpConfig builds a control-plane config with a single -coldstart-style
// budget split over the lifecycle delays.
func cpConfig(nodes int, cores float64, cold, lag time.Duration, lb node.LBPolicy) *node.Config {
	sched, pull, warm := node.SplitColdStart(cold)
	return &node.Config{
		Nodes:       nodes,
		NodeCores:   cores,
		Policy:      node.PolicySpread,
		SchedDelay:  sched,
		PullDelay:   pull,
		WarmDelay:   warm,
		EndpointLag: lag,
		LB:          lb,
	}
}

func mustCPCluster(t *testing.T, k *sim.Kernel, app App, cfg *node.Config) *Cluster {
	t.Helper()
	c, err := New(k, app, Options{ControlPlane: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestControlPlaneColdStartGatesServing pins the heart of the model: a
// fresh deployment serves nothing until its pods finish the cold start
// AND the ready transitions propagate into the endpoint views.
func TestControlPlaneColdStartGatesServing(t *testing.T) {
	k := sim.NewKernel(1)
	// Cold start 1s (100ms sched, 400ms pull, 500ms warm), 200ms lag:
	// first possible completion after t = 1.2s.
	c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, 200*time.Millisecond, node.LBRoundRobin))
	k.At(sim.Time(500*time.Millisecond), func() { c.SubmitMix() })
	k.At(sim.Time(2*time.Second), func() { c.SubmitMix() })
	k.Run()
	if c.Refused() == 0 || c.Failed() != 1 {
		t.Fatalf("pre-ready submission not refused: refused %d, failed %d", c.Refused(), c.Failed())
	}
	if c.Completed() != 1 {
		t.Fatalf("post-ready submission did not complete: completed %d", c.Completed())
	}
	// Both services must be placed (2 nodes × 6 cores fit 4+2).
	cp := c.ControlPlane()
	for _, svc := range []string{"frontend", "backend"} {
		if p := cp.placement(cp.c.services[svc]); strings.Contains(p, "@-") || p == "" {
			t.Errorf("service %s not placed: %q", svc, p)
		}
	}
}

// TestControlPlaneLegacyPathUntouched pins that a cluster without a
// control plane still has every instance ready and no fleet attached.
func TestControlPlaneLegacyPathUntouched(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(0, 0))
	if c.ControlPlane() != nil {
		t.Fatal("legacy cluster grew a control plane")
	}
	svc, _ := c.Service("backend")
	for _, in := range svc.Instances() {
		if !in.Ready() || in.pod != nil {
			t.Fatalf("legacy instance %s: ready=%v pod=%v", in.ID(), in.Ready(), in.pod)
		}
	}
	c.SubmitMix()
	k.Run()
	if c.Completed() != 1 {
		t.Fatalf("completed %d", c.Completed())
	}
}

// TestEndpointViewWithoutControlPlane pins the synchronous view: with no
// control plane every membership change (scale-up, drain, reap, crash,
// restore) reaches the endpoint view at once, in instance creation
// order, without scheduling an event or publishing endpoints.update, and
// pick never returns a down or draining pod.
func TestEndpointViewWithoutControlPlane(t *testing.T) {
	k := sim.NewKernel(1)
	rec := telemetry.NewRecorder("t")
	c, err := New(k, twoTier(0, 0), Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := c.Service("backend")
	check := func(step string, wantPods int) {
		t.Helper()
		var want []*Instance
		for _, in := range svc.instances {
			if in.ready && !in.down && !in.draining {
				want = append(want, in)
			}
		}
		if !slices.Equal(svc.endpoints, want) || len(want) != wantPods {
			t.Fatalf("%s: view %v, want %d pods %v", step, ids(svc.endpoints), wantPods, ids(want))
		}
		for i := 0; i <= 2*len(svc.instances); i++ {
			in := svc.pick()
			if (in == nil) != (len(want) == 0) || in != nil && (in.down || in.draining) {
				t.Fatalf("%s: pick returned %v", step, in)
			}
		}
	}
	step := func(name string, wantPods int, change func()) {
		t.Helper()
		before := k.Pending()
		change()
		if k.Pending() != before {
			t.Fatalf("%s: pending events %d -> %d", name, before, k.Pending())
		}
		check(name, wantPods)
	}
	check("initial", 1)
	step("scale-up", 3, func() { c.SetReplicas("backend", 3) })
	// One request per backend pod, caught mid-service.
	for i := 0; i < 3; i++ {
		c.SubmitMix()
	}
	k.RunUntil(sim.Time(3 * time.Millisecond))
	step("scale-down with drain", 1, func() { c.SetReplicas("backend", 1) })
	if len(svc.instances) != 3 {
		t.Fatalf("busy pods reaped before draining: %d instances", len(svc.instances))
	}
	k.Run()
	check("reap", 1)
	if len(svc.instances) != 1 || c.Completed() != 3 {
		t.Fatalf("after drain: %d instances, %d completed", len(svc.instances), c.Completed())
	}
	step("scale-up again", 3, func() { c.SetReplicas("backend", 3) })
	first := svc.instances[0]
	step("crash", 2, first.Crash)
	step("restore", 3, first.Restore)
	step("crash all", 0, func() {
		for _, in := range svc.Instances() {
			in.Crash()
		}
	})
	for _, ev := range rec.Events() {
		if ev.Kind == "endpoints.update" {
			t.Fatalf("endpoints.update published without a control plane: %+v", ev.Attrs)
		}
	}
}

func ids(ins []*Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.id
	}
	return out
}

// TestStaleEndpointCrashRefusals pins the endpoint-propagation window:
// after a pod crashes, the balancer keeps routing to it (connection
// refused) until the view catches up one lag later.
func TestStaleEndpointCrashRefusals(t *testing.T) {
	k := sim.NewKernel(1)
	lag := 500 * time.Millisecond
	c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, lag, node.LBRoundRobin))
	var backend *Instance
	k.At(sim.Time(3*time.Second), func() {
		svc, _ := c.Service("backend")
		backend = svc.instances[0]
		backend.Crash()
	})
	// During the stale window the crashed pod is still the only endpoint.
	k.At(sim.Time(3*time.Second+200*time.Millisecond), func() {
		svc, _ := c.Service("backend")
		if len(svc.endpoints) != 1 || svc.endpoints[0] != backend {
			t.Errorf("stale window: endpoints = %d entries", len(svc.endpoints))
		}
		c.SubmitMix()
	})
	// After propagation the view is empty (refusal at pick, not enqueue).
	k.At(sim.Time(4*time.Second), func() {
		svc, _ := c.Service("backend")
		if len(svc.endpoints) != 0 {
			t.Errorf("post-lag: endpoints = %d entries, want 0", len(svc.endpoints))
		}
	})
	k.Run()
	if c.Failed() != 1 || c.Refused() == 0 {
		t.Fatalf("stale-window request not refused: failed %d refused %d", c.Failed(), c.Refused())
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", c.InFlight())
	}
}

// TestStaleEndpointRetryBreaker is the call-policy interplay contract:
// requests routed to a just-crashed (or not-yet-propagated) replica
// resolve through timeout → retry → breaker — never hang, never
// double-complete — and the path heals once the pod restores and the
// breaker's cooldown passes.
func TestStaleEndpointRetryBreaker(t *testing.T) {
	k := sim.NewKernel(3)
	lag := 400 * time.Millisecond
	c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, lag, node.LBRoundRobin))
	if err := c.SetCallPolicy("frontend", "backend", CallPolicy{Timeout: 20 * time.Millisecond, MaxAttempts: 3}); err != nil {
		t.Fatal(err)
	}
	submitted := 0
	submit := func(at time.Duration, n int) {
		for i := 0; i < n; i++ {
			at += 10 * time.Millisecond
			k.At(sim.Time(at), func() { c.SubmitMix() })
			submitted++
		}
	}
	submit(2*time.Second, 3) // healthy: all complete
	k.At(sim.Time(3*time.Second), func() {
		svc, _ := c.Service("backend")
		svc.instances[0].Crash()
	})
	submit(3*time.Second, 20) // stale window + empty view: retried, then failed fast
	k.At(sim.Time(4*time.Second), func() {
		if st := c.edge("frontend", "backend").state.String(); st != "open" {
			t.Errorf("breaker %q after refusal storm, want open", st)
		}
	})
	k.At(sim.Time(5*time.Second), func() {
		svc, _ := c.Service("backend")
		svc.instances[0].Restore()
	})
	submit(9*time.Second, 5) // healed, and the 5 s cooldown has passed: probe closes the breaker, traffic completes
	k.Run()

	total := c.Completed() + c.Failed()
	if total != uint64(submitted) {
		t.Fatalf("accounting: completed %d + failed %d = %d, want %d submitted (hang or double-complete)",
			c.Completed(), c.Failed(), total, submitted)
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", c.InFlight())
	}
	if c.Completed() < 4 {
		t.Fatalf("completed %d: healthy or healed traffic did not complete", c.Completed())
	}
	if c.Failed() == 0 || c.Retries() == 0 || c.Refused() == 0 {
		t.Fatalf("fault window left no trace: failed %d retries %d refused %d",
			c.Failed(), c.Retries(), c.Refused())
	}
	if c.BreakerRejections() == 0 {
		t.Fatal("breaker never rejected during the refusal storm")
	}
	if st := c.edge("frontend", "backend").state.String(); st != "closed" {
		t.Fatalf("breaker %q at end, want closed (healed)", st)
	}
}

// TestControlPlaneNodeCrashReschedules pins crash recovery: victims are
// removed for good, replacements cold-start on surviving nodes, and
// traffic resumes once they propagate.
func TestControlPlaneNodeCrashReschedules(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, 200*time.Millisecond, node.LBRoundRobin))
	cp := c.ControlPlane()
	k.Run() // let the initial deployment settle
	svc, _ := c.Service("backend")
	oldID := svc.instances[0].id
	crashIdx := -1
	for i := 0; i < cp.NodeCount(); i++ {
		if strings.Contains(cp.placement(cp.c.services["backend"]), cp.Fleet().NodeName(i)) {
			crashIdx = i
		}
	}
	if crashIdx < 0 {
		t.Fatalf("backend not placed: %q", cp.placement(cp.c.services["backend"]))
	}
	cp.CrashNode(crashIdx)
	k.Run() // replacement cold start + propagation
	if len(svc.instances) != 1 || svc.instances[0].id == oldID {
		t.Fatalf("crash victim not replaced: %d instances, first %s", len(svc.instances), svc.instances[0].id)
	}
	if !svc.instances[0].ready || len(svc.endpoints) != 1 {
		t.Fatalf("replacement not serving: ready=%v endpoints=%d", svc.instances[0].ready, len(svc.endpoints))
	}
	if p := cp.placement(cp.c.services["backend"]); strings.Contains(p, cp.Fleet().NodeName(crashIdx)) {
		t.Fatalf("replacement landed on the crashed node: %q", p)
	}
	c.SubmitMix()
	k.Run()
	if c.Completed() != 1 {
		t.Fatalf("traffic did not resume: completed %d", c.Completed())
	}
}

// TestControlPlaneDrainGraceful pins drain semantics: the evicted pod
// finishes its work, a replacement appears elsewhere, and the drained
// node ends up cordoned and empty.
func TestControlPlaneDrainGraceful(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, 200*time.Millisecond, node.LBRoundRobin))
	cp := c.ControlPlane()
	k.Run()
	drainIdx := -1
	for i := 0; i < cp.NodeCount(); i++ {
		if strings.Contains(cp.placement(cp.c.services["backend"]), cp.Fleet().NodeName(i)) {
			drainIdx = i
		}
	}
	cp.DrainNode(drainIdx)
	k.Run()
	if !cp.Fleet().NodeCordoned(drainIdx) {
		t.Fatal("drained node not cordoned")
	}
	if used, pods := cp.Fleet().NodeLoad(drainIdx); used != 0 || pods != 0 {
		t.Fatalf("drained node still holds %g cores, %d pods", used, pods)
	}
	svc, _ := c.Service("backend")
	if svc.Replicas() != 1 || len(svc.endpoints) != 1 || !svc.endpoints[0].ready {
		t.Fatalf("replacement not serving after drain: replicas %d, endpoints %d", svc.Replicas(), len(svc.endpoints))
	}
	cp.UncordonNode(drainIdx)
	if cp.Fleet().NodeCordoned(drainIdx) {
		t.Fatal("uncordon did not reopen the node")
	}
}

// TestEndpointStall pins the propagation-stall fault: membership
// changes freeze until the stall lifts, then apply in one batch.
func TestEndpointStall(t *testing.T) {
	k := sim.NewKernel(1)
	lag := 100 * time.Millisecond
	c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, lag, node.LBRoundRobin))
	cp := c.ControlPlane()
	k.Run()
	svc, _ := c.Service("backend")
	cp.SetEndpointStall(true)
	svc.instances[0].Crash()
	k.Run() // well past the lag
	if len(svc.endpoints) != 1 {
		t.Fatalf("stalled view updated anyway: %d endpoints", len(svc.endpoints))
	}
	cp.SetEndpointStall(false)
	if len(svc.endpoints) != 0 {
		t.Fatalf("lifting the stall did not flush the view: %d endpoints", len(svc.endpoints))
	}
}

// TestLoadBalancerPolicies pins each policy of Service.pick over a
// two-replica endpoint view.
func TestLoadBalancerPolicies(t *testing.T) {
	build := func(lb node.LBPolicy, seed uint64) *Service {
		k := sim.NewKernel(seed)
		app := twoTier(0, 0)
		app.Services[1].Replicas = 2
		c := mustCPCluster(t, k, app, cpConfig(2, 8, time.Second, 100*time.Millisecond, lb))
		k.Run()
		svc, _ := c.Service("backend")
		if len(svc.endpoints) != 2 {
			t.Fatalf("endpoints = %d, want 2", len(svc.endpoints))
		}
		return svc
	}

	t.Run("rr cycles", func(t *testing.T) {
		svc := build(node.LBRoundRobin, 1)
		a := svc.pick()
		b := svc.pick()
		if a == b {
			t.Fatal("round-robin repeated an endpoint")
		}
		if svc.pick() != a {
			t.Fatal("round-robin did not cycle back")
		}
	})
	t.Run("least picks idler", func(t *testing.T) {
		svc := build(node.LBLeastLoaded, 1)
		svc.endpoints[0].active = 5
		if got := svc.pick(); got != svc.endpoints[1] {
			t.Fatalf("least-loaded picked the busy pod")
		}
		svc.endpoints[1].active = 9
		if got := svc.pick(); got != svc.endpoints[0] {
			t.Fatalf("least-loaded ignored the load change")
		}
	})
	t.Run("p2c deterministic and load-averse", func(t *testing.T) {
		s1 := build(node.LBPowerOfTwo, 7)
		s2 := build(node.LBPowerOfTwo, 7)
		for i := 0; i < 32; i++ {
			if s1.pick().id != s2.pick().id {
				t.Fatalf("p2c pick %d differs between identical runs", i)
			}
		}
		s1.endpoints[0].active = 100
		for i := 0; i < 16; i++ {
			if got := s1.pick(); got != s1.endpoints[1] {
				t.Fatal("p2c picked the overloaded pod")
			}
		}
	})
}

// TestControlPlaneTimelinePlacement pins that flight-recorder windows
// carry the placement attribute exactly when a control plane exists.
func TestControlPlaneTimelinePlacement(t *testing.T) {
	run := func(cpCfg *node.Config) []telemetry.Event {
		k := sim.NewKernel(1)
		rec := telemetry.NewRecorder("t")
		c, err := New(k, twoTier(0, 0), Options{Telemetry: rec, ControlPlane: cpCfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ArmFlightRecorder(time.Second, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		k.At(sim.Time(2*time.Second), func() { c.SubmitMix() })
		k.RunUntil(sim.Time(3 * time.Second))
		c.flight.Stop()
		k.Run()
		return rec.Events()
	}
	withCP := run(cpConfig(2, 6, time.Second, 100*time.Millisecond, node.LBRoundRobin))
	found := false
	for _, ev := range withCP {
		if ev.Kind != "timeline.window" {
			continue
		}
		found = true
		if p := attrStr(ev, "placement"); p == "" || !strings.Contains(p, "@node-") {
			t.Fatalf("control-plane window placement = %q", p)
		}
	}
	if !found {
		t.Fatal("no timeline.window events")
	}
	for _, ev := range run(nil) {
		if ev.Kind == "timeline.window" && attrStr(ev, "placement") != "" {
			t.Fatal("legacy window grew a placement attribute")
		}
	}
}

// TestEndpointsUpdateEvents pins the endpoints.update stream: published
// on real changes only, with the pod list.
func TestEndpointsUpdateEvents(t *testing.T) {
	k := sim.NewKernel(1)
	rec := telemetry.NewRecorder("t")
	if _, err := New(k, twoTier(0, 0), Options{Telemetry: rec, ControlPlane: cpConfig(2, 6, time.Second, 100*time.Millisecond, node.LBRoundRobin)}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	var updates []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == "endpoints.update" {
			updates = append(updates, ev)
		}
	}
	// One ready transition per service, no duplicates.
	if len(updates) != 2 {
		t.Fatalf("endpoints.update count = %d, want 2 (one per service)", len(updates))
	}
	for _, ev := range updates {
		if attrInt(ev, "count") != 1 || attrStr(ev, "pods") == "" {
			t.Fatalf("malformed endpoints.update: %+v", ev.Attrs)
		}
	}
}
