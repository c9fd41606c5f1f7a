package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/fault"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

// TestSettledTracesNeverChange checks the rule readers that cache trace
// summaries rely on: a trace the warehouse stored as settled never
// changes after its root completes. The Sock Shop cart deployment runs
// under the combo fault plan with the cart→cart-db timeout cut to
// 10 ms, so timed-out calls leave orphans that outlive their parent;
// the call above the timeout is a policy edge in one case and a direct
// edge in the other, so the unsettled mark travels up both ways. Every
// trace is exported at completion; once the load stops and the kernel
// drains, every settled trace must re-export byte for byte, and some
// unsettled trace must have changed, which shows the comparison can
// see a change.
func TestSettledTracesNeverChange(t *testing.T) {
	for _, tc := range []struct {
		name string
		// mesh puts every Sock Shop edge under its resilience policy;
		// otherwise only cart→cart-db has one and the combo plan's edge
		// fault moves there, leaving front-end→cart direct.
		mesh bool
	}{{"resilience mesh", true}, {"timeout behind a direct edge", false}} {
		t.Run(tc.name, func(t *testing.T) { checkSettledTraces(t, tc.mesh) })
	}
}

func checkSettledTraces(t *testing.T, mesh bool) {
	const dur = 12 * time.Second
	k := sim.NewKernel(5)
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 10
	app := topology.SockShop(cfg)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RetainTraces(trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMix(topology.CartOnlyMix(app)); err != nil {
		t.Fatal(err)
	}
	var policies []topology.EdgePolicy
	for _, p := range topology.SockShopResilience() {
		if p.Callee == topology.CartDB {
			p.Policy.Timeout = 10 * time.Millisecond
		} else if !mesh {
			continue
		}
		policies = append(policies, p)
	}
	if err := topology.ApplyResilience(c, policies); err != nil {
		t.Fatal(err)
	}
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	targets := fault.Targets{
		CrashService: topology.Cart,
		SlowService:  topology.CartDB,
		EdgeCaller:   topology.FrontEnd,
		EdgeCallee:   topology.Cart,
		ClampRef:     ref,
		ClampSize:    4,
	}
	if !mesh {
		targets.EdgeCaller, targets.EdgeCallee = topology.Cart, topology.CartDB
	}
	plan, err := fault.NamedPlan("combo", targets, dur)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.New(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(900),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		t.Fatal(err)
	}

	type snapshot struct {
		tr      *trace.Trace
		settled bool
		json    []byte
	}
	var snaps []snapshot
	wh := c.Warehouse()
	c.OnComplete(func(tr *trace.Trace) {
		seq := wh.Added() - 1
		var buf bytes.Buffer
		if err := trace.Export(&buf, tr); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snapshot{tr.Retain(), len(wh.Unsettled(seq, seq+1)) == 0, buf.Bytes()})
	})
	eng.Start()
	loop.Start()
	k.RunUntil(sim.Time(dur))
	loop.Stop()
	k.Run()
	if c.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", c.InFlight())
	}

	settled, unsettled, changed := 0, 0, 0
	for _, s := range snaps {
		var buf bytes.Buffer
		if err := trace.Export(&buf, s.tr); err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(buf.Bytes(), s.json)
		if !s.settled {
			unsettled++
			if !same {
				changed++
			}
			continue
		}
		settled++
		if !same {
			t.Errorf("settled trace %d changed after completion:\n at completion %s after drain    %s", s.tr.ID, s.json, buf.Bytes())
		}
	}
	t.Logf("%d settled traces, %d unsettled (%d changed after completion)", settled, unsettled, changed)
	if settled == 0 || changed == 0 {
		t.Errorf("%d settled traces, %d unsettled changed after completion; want both > 0", settled, changed)
	}
}
