package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/fault"
	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

// scanRig is one live deployment whose warehouse windows the scan is
// checked on.
type scanRig struct {
	k       *sim.Kernel
	c       *cluster.Cluster
	mon     *Monitor
	managed []ManagedResource
}

// newScanRig wires a cluster, a monitor over refs and a closed loop of
// users, as the experiment rigs do.
func newScanRig(t *testing.T, seed uint64, app cluster.App, mix []cluster.WeightedRequest, refs []cluster.ResourceRef, users int, cp *node.Config) *scanRig {
	t.Helper()
	k := sim.NewKernel(seed)
	c, err := cluster.New(k, app, cluster.Options{ControlPlane: cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetMix(mix); err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(c, 0, refs, c.ServiceNames())
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
	mon.Start()
	loop.Start()
	return &scanRig{k: k, c: c, mon: mon}
}

var scanHomeTimelineConns = cluster.ResourceRef{Service: topology.HomeTimeline, Kind: cluster.PoolClientConns, Target: topology.PostStorage}

// scanDriftRig is the Social Network home-timeline deployment of the
// drift experiments, with reads switching from light to heavy at 20 s.
func scanDriftRig(t *testing.T) *scanRig {
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 15
	cfg.PostStorageCores = 2
	r := newScanRig(t, 3, topology.SocialNetwork(cfg), topology.HomeTimelineOnlyMix(false),
		[]cluster.ResourceRef{scanHomeTimelineConns}, 700, nil)
	r.k.At(sim.Time(20*time.Second), func() {
		if err := r.c.SetMix(topology.HomeTimelineOnlyMix(true)); err != nil {
			t.Error(err)
		}
	})
	r.managed = []ManagedResource{{Ref: scanHomeTimelineConns, Min: 4, Max: 300}}
	return r
}

// scanChaosRig is the Sock Shop cart deployment under the resilience
// policies and the combo fault plan: retries repeat visits and breakers
// open. The cart→cart-db timeout is cut to 10 ms so a tenth of the
// traces hold timed-out orphan spans, some ending after their parent.
func scanChaosRig(t *testing.T, dur time.Duration) *scanRig {
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 10
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	r := newScanRig(t, 5, app, topology.CartOnlyMix(app), []cluster.ResourceRef{ref}, 900, nil)
	policies := topology.SockShopResilience()
	for i := range policies {
		if policies[i].Callee == topology.CartDB {
			policies[i].Policy.Timeout = 10 * time.Millisecond
		}
	}
	if err := topology.ApplyResilience(r.c, policies); err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NamedPlan("combo", fault.Targets{
		CrashService: topology.Cart,
		SlowService:  topology.CartDB,
		EdgeCaller:   topology.FrontEnd,
		EdgeCallee:   topology.Cart,
		ClampRef:     ref,
		ClampSize:    4,
	}, dur)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.New(r.c, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	r.managed = []ManagedResource{{Ref: ref, Min: 2, Max: 200}}
	return r
}

// scanCtrlPlaneRig is the Social Network read path on a bin-packed
// four-node fleet with lagged endpoint views under node chaos, so some
// visits are refused by pods that are already gone.
func scanCtrlPlaneRig(t *testing.T, dur time.Duration) *scanRig {
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 4
	cfg.PostStorageCores = 2
	cfg.PostStorageReplicas = 2
	app := topology.SocialNetwork(cfg)
	total := 0.0
	for _, s := range app.Services {
		total += float64(s.Replicas) * s.Cores
	}
	sched, pull, warm := node.SplitColdStart(time.Second)
	cp := &node.Config{
		Nodes:       4,
		NodeCores:   math.Ceil((total + 10) / 3),
		Policy:      node.PolicyBinPack,
		SchedDelay:  sched,
		PullDelay:   pull,
		WarmDelay:   warm,
		EndpointLag: 500 * time.Millisecond,
		LB:          node.LBPowerOfTwo,
	}
	r := newScanRig(t, 7, app, topology.HomeTimelineOnlyMix(false), []cluster.ResourceRef{scanHomeTimelineConns}, 1000, cp)
	if err := topology.ApplyResilience(r.c, topology.SocialNetworkResilience()); err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NamedPlan("nodechaos", fault.Targets{CrashService: topology.PostStorage, NodeFaults: true}, dur)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.New(r.c, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	r.managed = []ManagedResource{{Ref: scanHomeTimelineConns, Min: 4, Max: 300}}
	return r
}

// TestWindowScanMatchesOracle checks that every answer the SCG decision
// reads from the one-pass window scan is exactly what the separate
// oracle passes compute, on live windows from three deployments at
// several decision times: the critical service, the propagated deadline
// of every service and of an unknown one, the behind-pool utilization
// of every service, and the whole SCG and SCT recommendations, also
// with the knob measured through an off-path service so the deadline
// falls back to the critical service's.
func TestWindowScanMatchesOracle(t *testing.T) {
	const dur = 48 * time.Second
	nows := []time.Duration{12 * time.Second, 24 * time.Second, 36 * time.Second, dur}
	cases := []struct {
		name  string
		build func(*testing.T) *scanRig
		// check asserts the run produced the window features the case
		// exists to cover.
		check func(*testing.T, *scanRig)
	}{
		{"drift", scanDriftRig, func(*testing.T, *scanRig) {}},
		{"chaos", func(t *testing.T) *scanRig { return scanChaosRig(t, dur) }, func(t *testing.T, r *scanRig) {
			late := 0
			for _, tr := range r.c.Warehouse().All() {
				tr.Root.Walk(func(s *trace.Span) {
					for _, c := range s.Children {
						if c.Abandoned && c.End > s.End {
							late++
						}
					}
				})
			}
			if late == 0 || r.c.Retries() == 0 || r.c.BreakerRejections() == 0 {
				t.Errorf("chaos run lacks a feature: %d orphans outliving their parent, %d retries, %d breaker rejections",
					late, r.c.Retries(), r.c.BreakerRejections())
			}
		}},
		{"ctrlplane", func(t *testing.T) *scanRig { return scanCtrlPlaneRig(t, dur) }, func(t *testing.T, r *scanRig) {
			if r.c.Refused() == 0 {
				t.Error("ctrlplane run refused no visits")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.build(t)
			cfg := SCGConfig{SLA: 400 * time.Millisecond, Window: 10 * time.Second}
			scg, err := NewSCG(r.c, r.mon, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sct, err := NewSCT(r.c, r.mon, cfg)
			if err != nil {
				t.Fatal(err)
			}
			services := append(r.c.ServiceNames(), "no-such-service")
			decisions, fallbacks := 0, 0
			for _, at := range nows {
				r.k.RunUntil(sim.Time(at))
				now := r.k.Now()
				same(t, at, "critical service", outcome(scg.CriticalService(now)), outcome(oracleCriticalService(scg, now)))
				for _, svc := range services {
					same(t, at, "deadline of "+svc, outcome(scg.PropagateDeadline(now, svc)), outcome(oraclePropagateDeadline(scg, now, svc)))
					same(t, at, "behind-pool utilization of "+svc,
						fmt.Sprint(scg.behindUtil(scg.scan(now), now, svc)), fmt.Sprint(oracleBehindUtil(scg, now, svc)))
				}
				rec, err := scg.Recommend(now, r.managed)
				if err == nil {
					decisions++
				}
				same(t, at, "SCG recommendation", outcome(rec, err), outcome(oracleRecommend(scg, now, r.managed)))
				same(t, at, "SCT recommendation", outcome(sct.Recommend(now, r.managed)), outcome(oracleSCTRecommend(sct, now, r.managed)))
				// Measure the knob through a service that is on no critical
				// path, so the deadline falls back to the critical service's.
				for _, svc := range r.c.ServiceNames() {
					if _, err := oraclePropagateDeadline(scg, now, svc); err == nil {
						continue
					}
					off := []ManagedResource{{Ref: r.managed[0].Ref, Measured: svc}}
					rec, err := scg.Recommend(now, off)
					if err == nil {
						fallbacks++
					}
					same(t, at, "SCG recommendation measured off-path at "+svc, outcome(rec, err), outcome(oracleRecommend(scg, now, off)))
					break
				}
			}
			if decisions == 0 || fallbacks == 0 {
				t.Errorf("recommendations: %d direct, %d through the deadline fallback; want both > 0", decisions, fallbacks)
			}
			tc.check(t, r)
		})
	}
}

// outcome renders a value-or-error result for exact comparison; %v
// prints floats in their shortest round-tripping form, so equal strings
// mean bit-equal values.
func outcome[T any](v T, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v", v)
}

func same(t *testing.T, at time.Duration, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("at %v, %s:\n scan   %s\n oracle %s", at, what, got, want)
	}
}

// fuzzServices are the names a decoded window draws its spans from: the
// first four are the names the scan is built with, the last two are
// unknown to it and must be appended on first visit.
var fuzzServices = []string{"a", "b", "c", "d", "x", "y"}

// fuzzReader hands out bytes, then zeros once the input is exhausted.
type fuzzReader struct {
	data  []byte
	spans int
}

func (r *fuzzReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// fuzzMaxSpans bounds a decoded window.
const fuzzMaxSpans = 256

// decodeWindow turns bytes into a window of synthetic traces. The first
// byte mod 6 is the trace count; each span then takes four bytes:
// service (mod 6, indexing fuzzServices), duration (1–4 ms, so equal
// sibling durations are common) and arrival offset from the parent,
// blocked share of the duration and the Abandoned flag, and child count
// (0–3, at most four levels deep).
func decodeWindow(data []byte) []*trace.Trace {
	r := &fuzzReader{data: data}
	n := r.next() % 6
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = &trace.Trace{ID: trace.ID(i + 1), Root: decodeSpan(r, 0, 0)}
	}
	return traces
}

func decodeSpan(r *fuzzReader, arrival sim.Time, depth int) *trace.Span {
	r.spans++
	svc, timing, blocked, kids := r.next(), r.next(), r.next(), r.next()
	dur := time.Duration(1+timing%4) * time.Millisecond
	s := &trace.Span{
		Service:   fuzzServices[svc%len(fuzzServices)],
		Depth:     int32(depth),
		Arrival:   arrival + sim.Time(timing/4%3)*sim.Time(time.Millisecond),
		Blocked:   dur * time.Duration(blocked%4) / 4,
		Abandoned: depth > 0 && blocked >= 200,
	}
	s.Start = s.Arrival
	s.End = s.Arrival + sim.Time(dur)
	if depth < 4 {
		for k := kids % 4; k > 0 && r.spans < fuzzMaxSpans; k-- {
			s.Children = append(s.Children, decodeSpan(r, s.Arrival, depth+1))
		}
	}
	return s
}

// FuzzWindowScan compares the scan's per-service statistics with the
// ones the oracle passes derive, on synthetic windows: services visited
// twice in one trace or twice on one critical path, sibling children of
// equal duration, abandoned children, services the scan was not built
// with, and one-trace and empty windows.
func FuzzWindowScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		traces := decodeWindow(data)
		w := scanWindow(traces, fuzzServices[:4])
		o := oracleWindowStats(traces)
		if fmt.Sprint(w.rts) != fmt.Sprint(o.rts) {
			t.Fatalf("response times: scan %v, oracle %v", w.rts, o.rts)
		}
		for i, name := range w.names {
			if j := w.find(name); j != i {
				t.Fatalf("find(%q) = %d, want %d", name, j, i)
			}
			st := w.svc[i]
			if st.visits != o.visits[name] {
				t.Errorf("%s visits: scan %d, oracle %d", name, st.visits, o.visits[name])
			}
			if fmt.Sprint(st.pt) != fmt.Sprint(o.pt[name]) {
				t.Errorf("%s processing times: scan %v, oracle %v", name, st.pt, o.pt[name])
			}
			if st.upSum != o.upSum[name] || st.upN != o.upN[name] {
				t.Errorf("%s upstream: scan %v over %d, oracle %v over %d", name, st.upSum, st.upN, o.upSum[name], o.upN[name])
			}
			for j, callee := range w.names {
				if w.calledBy(i, j) != o.children[name][callee] {
					t.Errorf("edge %s→%s: scan %v, oracle %v", name, callee, w.calledBy(i, j), o.children[name][callee])
				}
			}
		}
		for name := range o.visits {
			if w.find(name) < 0 {
				t.Errorf("scan never indexed visited service %q", name)
			}
		}
		if len(w.names) < 4 || fmt.Sprint(w.names[:4]) != fmt.Sprint(fuzzServices[:4]) {
			t.Errorf("scan reordered its base names: %v", w.names)
		}
	})
}
