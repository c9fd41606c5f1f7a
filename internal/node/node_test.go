package node

import (
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/telemetry"
)

func testConfig(policy Policy) Config {
	return Config{
		Nodes:      3,
		NodeCores:  4,
		Policy:     policy,
		SchedDelay: 100 * time.Millisecond,
		PullDelay:  400 * time.Millisecond,
		WarmDelay:  500 * time.Millisecond,
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	for _, cfg := range []Config{
		{Nodes: 0, NodeCores: 4},
		{Nodes: 2, NodeCores: 0},
		{Nodes: 2, NodeCores: 4, SchedDelay: -time.Second},
	} {
		if _, err := NewFleet(k, cfg, nil); err == nil {
			t.Errorf("NewFleet(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := NewFleet(nil, testConfig(PolicyFirstFit), nil); err == nil {
		t.Error("NewFleet accepted a nil kernel")
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, p := range []Policy{PolicyFirstFit, PolicySpread, PolicyBinPack} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, lb := range []LBPolicy{LBRoundRobin, LBLeastLoaded, LBPowerOfTwo} {
		got, err := ParseLB(lb.String())
		if err != nil || got != lb {
			t.Errorf("ParseLB(%q) = %v, %v", lb.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus")
	}
	if _, err := ParseLB("bogus"); err == nil {
		t.Error("ParseLB accepted bogus")
	}
}

func TestSplitColdStart(t *testing.T) {
	sched, pull, warm := SplitColdStart(10 * time.Second)
	if sched+pull+warm != 10*time.Second {
		t.Fatalf("split loses time: %v + %v + %v", sched, pull, warm)
	}
	if sched != time.Second || pull != 4*time.Second || warm != 5*time.Second {
		t.Fatalf("unexpected split %v/%v/%v", sched, pull, warm)
	}
}

// TestPodLifecycle walks one pod through the cold start on the virtual
// clock and checks the state at each boundary.
func TestPodLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	f, err := NewFleet(k, testConfig(PolicyFirstFit), nil)
	if err != nil {
		t.Fatal(err)
	}
	var readyAt sim.Time
	p := f.Launch("svc", "svc-0", 2, func(*Pod) { readyAt = k.Now() })
	if p.state != StatePending {
		t.Fatalf("state before scheduling = %v", p.state)
	}
	k.RunUntil(sim.Time(150 * time.Millisecond))
	if p.state != StateScheduled || p.NodeName() != "node-0" {
		t.Fatalf("after sched delay: state %v on %s", p.state, p.NodeName())
	}
	k.RunUntil(sim.Time(600 * time.Millisecond))
	if p.state != StatePulling {
		t.Fatalf("after pull delay: state %v", p.state)
	}
	k.Run()
	if !(p.state == StateReady) {
		t.Fatalf("final state %v", p.state)
	}
	want := sim.Time(1000 * time.Millisecond)
	if readyAt != want {
		t.Fatalf("ready at %v, want %v", readyAt, want)
	}
	if used, pods := f.NodeLoad(0); used != 2 || pods != 1 {
		t.Fatalf("node 0 load = %g cores, %d pods", used, pods)
	}
}

// TestPlacementPolicies pins where each policy puts a pod given an
// asymmetric load.
func TestPlacementPolicies(t *testing.T) {
	cases := []struct {
		policy Policy
		want   string
	}{
		{PolicyFirstFit, "node-0"}, // first with capacity
		{PolicySpread, "node-2"},   // most free cores
		{PolicyBinPack, "node-1"},  // least free cores that still fit
	}
	for _, tc := range cases {
		k := sim.NewKernel(1)
		f, err := NewFleet(k, testConfig(tc.policy), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-load: node-0 holds 1 core, node-1 holds 3, node-2 empty.
		f.Launch("seed", "seed-0", 1, nil)
		f.Launch("seed", "seed-1", 3, nil)
		k.Run()
		// Force seed placement onto distinct nodes under every policy by
		// checking and, if needed, skipping: with firstfit both seeds land
		// on node-0 (1+3 = 4 cores, full), changing the preload shape.
		if tc.policy == PolicyFirstFit {
			// node-0 is full (4/4); the probe must go to node-1.
			p := f.Launch("svc", "svc-0", 1, nil)
			k.Run()
			if got := p.NodeName(); got != "node-1" {
				t.Errorf("firstfit placed on %s, want node-1 (node-0 full)", got)
			}
			continue
		}
		p := f.Launch("svc", "svc-0", 1, nil)
		k.Run()
		if got := p.NodeName(); got != tc.want {
			used0, _ := f.NodeLoad(0)
			used1, _ := f.NodeLoad(1)
			used2, _ := f.NodeLoad(2)
			t.Errorf("%v placed on %s, want %s (loads %g/%g/%g)",
				tc.policy, got, tc.want, used0, used1, used2)
		}
	}
}

// TestPendingQueue pins that pods that fit nowhere wait FIFO and place
// as soon as capacity frees.
func TestPendingQueue(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(PolicyFirstFit)
	cfg.Nodes = 1
	f, err := NewFleet(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := f.Launch("svc", "svc-0", 3, nil)
	b := f.Launch("svc", "svc-1", 3, nil)
	k.Run()
	if !(a.state == StateReady) || b.state != StatePending {
		t.Fatalf("states a=%v b=%v, want ready/pending", a.state, b.state)
	}
	if f.PendingPods() != 1 {
		t.Fatalf("pending = %d, want 1", f.PendingPods())
	}
	f.Forget(a)
	k.Run()
	if !(b.state == StateReady) {
		t.Fatalf("b never placed after capacity freed: %v", b.state)
	}
	if f.PendingPods() != 0 {
		t.Fatalf("pending = %d after placement", f.PendingPods())
	}
}

// TestCrashNodeKillsResidents pins that a node crash kills pods at
// every lifecycle stage and releases nothing until restore.
func TestCrashNodeKillsResidents(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(PolicyFirstFit)
	cfg.Nodes = 1
	f, err := NewFleet(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := f.Launch("svc", "svc-0", 1, nil)
	k.Run()
	warming := f.Launch("svc", "svc-1", 1, nil)
	k.RunUntil(k.Now() + sim.Time(200*time.Millisecond)) // scheduled, mid-pull
	victims := f.CrashNode(0)
	if len(victims) != 2 {
		t.Fatalf("crash returned %d victims, want 2", len(victims))
	}
	if ready.state != StateDead || warming.state != StateDead {
		t.Fatalf("victims not dead: %v / %v", ready.state, warming.state)
	}
	k.Run() // any leftover lifecycle timer must be inert
	if warming.state != StateDead {
		t.Fatalf("dead pod resurrected: %v", warming.state)
	}
	// The node accepts nothing while down…
	p := f.Launch("svc", "svc-2", 1, nil)
	k.Run()
	if p.state != StatePending {
		t.Fatalf("placed on a crashed node: %v on %s", p.state, p.NodeName())
	}
	// …and pending pods place on restore.
	f.RestoreNode(0)
	k.Run()
	if !(p.state == StateReady) {
		t.Fatalf("pod not placed after restore: %v", p.state)
	}
	if f.CrashNode(0); f.NodeDown(0) != true {
		t.Fatal("second crash should keep the node down")
	}
}

// TestDrainNode pins cordon semantics: residents stay placed, new
// placements avoid the node, uncordon reopens it.
func TestDrainNode(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(PolicyFirstFit)
	cfg.Nodes = 1
	f, err := NewFleet(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := f.Launch("svc", "svc-0", 2, nil)
	k.Run()
	victims := f.DrainNode(0)
	if len(victims) != 1 || victims[0] != a {
		t.Fatalf("drain returned %v", victims)
	}
	if !(a.state == StateReady) {
		t.Fatalf("drain must not kill residents: %v", a.state)
	}
	b := f.Launch("svc", "svc-1", 1, nil)
	k.Run()
	if b.state != StatePending {
		t.Fatalf("scheduled onto a cordoned node: %v", b.state)
	}
	f.Forget(a) // graceful eviction finished
	k.Run()
	if b.state != StatePending {
		t.Fatal("cordoned node must stay closed even with capacity")
	}
	f.UncordonNode(0)
	k.Run()
	if !(b.state == StateReady) {
		t.Fatalf("pod not placed after uncordon: %v", b.state)
	}
	if f.DrainNode(0) == nil {
		// second drain of an uncordoned node with residents returns them
		t.Fatal("drain after uncordon returned nil")
	}
}

// TestForgetPendingPod pins that forgetting an unplaced pod removes its
// queue entry and that a forgotten pod never becomes ready.
func TestForgetPendingPod(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig(PolicyFirstFit)
	cfg.Nodes = 1
	f, err := NewFleet(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := f.Launch("svc", "svc-0", 4, nil)
	fired := false
	b := f.Launch("svc", "svc-1", 4, func(*Pod) { fired = true })
	k.Run()
	f.Forget(b)
	f.Forget(a)
	k.Run()
	if fired {
		t.Fatal("forgotten pending pod became ready")
	}
	if b.state != StateDead || f.PendingPods() != 0 {
		t.Fatalf("state %v, pending %d", b.state, f.PendingPods())
	}
}

// TestFleetEvents pins the telemetry kinds the fleet emits.
func TestFleetEvents(t *testing.T) {
	k := sim.NewKernel(1)
	rec := telemetry.NewRecorder("test")
	f, err := NewFleet(k, testConfig(PolicyFirstFit), rec)
	if err != nil {
		t.Fatal(err)
	}
	f.Launch("svc", "svc-0", 1, nil)
	k.Run()
	f.DrainNode(0)
	f.CrashNode(0)
	counts := map[string]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	for _, kind := range []string{"node.schedule", "node.ready", "node.drain", "node.crash"} {
		if counts[kind] != 1 {
			t.Errorf("event %q published %d times, want 1 (all: %v)", kind, counts[kind], counts)
		}
	}
}

// TestSchedulerDeterminism pins that two fleets driven identically
// produce identical placements — the foundation of the serial/parallel
// artifact equivalence upstream.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() []string {
		k := sim.NewKernel(7)
		f, err := NewFleet(k, testConfig(PolicySpread), nil)
		if err != nil {
			t.Fatal(err)
		}
		var pods []*Pod
		for i := 0; i < 8; i++ {
			pods = append(pods, f.Launch("svc", "p", float64(1+i%3), nil))
		}
		k.Run()
		var names []string
		for _, p := range pods {
			names = append(names, p.NodeName())
		}
		return names
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}
