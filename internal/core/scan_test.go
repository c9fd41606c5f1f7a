package core

import (
	"fmt"
	"math"
	"slices"
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
	// unsettled counts the traces the warehouse stored as unsettled.
	unsettled int
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
	r := &scanRig{k: k, c: c, mon: mon}
	wh := c.Warehouse()
	c.OnComplete(func(*trace.Trace) {
		if seq := wh.Added() - 1; len(wh.Unsettled(seq, seq+1)) > 0 {
			r.unsettled++
		}
	})
	mon.Start()
	loop.Start()
	return r
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
// reads from its window scan is exactly what the separate oracle passes
// compute, on live windows from three deployments. The model decides
// every 500 ms over a 10 s window, so consecutive windows overlap and
// most of each scan is merged from sealed blocks; every merged scan
// must equal a fresh scanWindow of the same traces. At each decision
// the critical service and the whole SCG and SCT recommendations are
// compared with the oracle's; every 12 s so are the propagated deadline
// of every service and of an unknown one, the behind-pool utilization
// of every service, and an SCG decision measured through an off-path
// service, so the deadline falls back to the critical service's.
func TestWindowScanMatchesOracle(t *testing.T) {
	const (
		dur   = 48 * time.Second
		step  = 500 * time.Millisecond
		fully = 12 * time.Second
	)
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
				tr.Tree().Walk(func(s *trace.Span) {
					for _, c := range s.Children {
						if c.Abandoned && c.End > s.End {
							late++
						}
					}
				})
			}
			if late == 0 || r.c.Retries() == 0 || r.c.BreakerRejections() == 0 || r.unsettled == 0 {
				t.Errorf("chaos run lacks a feature: %d orphans outliving their parent, %d retries, %d breaker rejections, %d unsettled traces",
					late, r.c.Retries(), r.c.BreakerRejections(), r.unsettled)
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
			for at := step; at <= dur; at += step {
				r.k.RunUntil(sim.Time(at))
				now := r.k.Now()
				traces, _ := r.c.Warehouse().View(now-cfg.Window, now)
				if d := scanDiff(scg.scan(now), scanWindow(traces, r.c.TraceNames())); d != "" {
					t.Fatalf("at %v, merged scan differs from a fresh one: %s", at, d)
				}
				same(t, at, "critical service", outcome(scg.CriticalService(now)), outcome(oracleCriticalService(scg, now)))
				rec, err := scg.Recommend(now, r.managed)
				if err == nil {
					decisions++
				}
				same(t, at, "SCG recommendation", outcome(rec, err), outcome(oracleRecommend(scg, now, r.managed)))
				same(t, at, "SCT recommendation", outcome(sct.Recommend(now, r.managed)), outcome(oracleSCTRecommend(sct, now, r.managed)))
				if at%fully != 0 {
					continue
				}
				for _, svc := range services {
					same(t, at, "deadline of "+svc, outcome(scg.PropagateDeadline(now, svc)), outcome(oraclePropagateDeadline(scg, now, svc)))
					same(t, at, "behind-pool utilization of "+svc,
						fmt.Sprint(scg.behindUtil(scg.scan(now), now, svc)), fmt.Sprint(oracleBehindUtil(scg, now, svc)))
				}
				// Measure the decision through a service that is on no
				// critical path, so the deadline falls back to the critical
				// service's. The service's own pool is idle, so for this one
				// decision it reads the managed knob's concurrency series.
				for _, svc := range r.c.ServiceNames() {
					if _, err := oraclePropagateDeadline(scg, now, svc); err == nil {
						continue
					}
					offRef := cluster.ResourceRef{Service: svc, Kind: cluster.PoolThreads}
					off := []ManagedResource{{Ref: offRef}}
					r.mon.conc[offRef] = r.mon.conc[r.managed[0].Ref]
					rec, err := scg.Recommend(now, off)
					if err == nil {
						fallbacks++
					}
					same(t, at, "SCG recommendation measured off-path at "+svc, outcome(rec, err), outcome(oracleRecommend(scg, now, off)))
					delete(r.mon.conc, offRef)
					break
				}
			}
			if decisions == 0 || fallbacks == 0 {
				t.Errorf("recommendations: %d direct, %d through the deadline fallback; want both > 0", decisions, fallbacks)
			}
			if scg.blocks.reused == 0 || sct.scg.blocks.reused == 0 {
				t.Errorf("sealed blocks reused: SCG %d, SCT %d; want both > 0", scg.blocks.reused, sct.scg.blocks.reused)
			}
			t.Logf("SCG sealed %d blocks and merged %d; %d unsettled traces", scg.blocks.sealed, scg.blocks.reused, r.unsettled)
			tc.check(t, r)
		})
	}
}

// scanDiff describes the first difference between two scans, or
// returns "" when they are identical: the same names in the same order,
// bit-equal response times and processing-time columns, equal counts
// and sums, and the same edges.
func scanDiff(got, want *windowScan) string {
	if !slices.Equal(got.names, want.names) {
		return fmt.Sprintf("names %v, want %v", got.names, want.names)
	}
	if !bitsEqual(got.rts, want.rts) {
		return fmt.Sprintf("response times %v, want %v", got.rts, want.rts)
	}
	for i, name := range want.names {
		g, w := &got.svc[i], &want.svc[i]
		if g.visits != w.visits || g.upSum != w.upSum || g.upN != w.upN {
			return fmt.Sprintf("%s: %d visits, upstream %v over %d; want %d, %v over %d", name, g.visits, g.upSum, g.upN, w.visits, w.upSum, w.upN)
		}
		if !bitsEqual(g.pt, w.pt) {
			return fmt.Sprintf("%s processing times %v, want %v", name, g.pt, w.pt)
		}
	}
	if !slices.Equal(got.calls, want.calls) {
		return fmt.Sprintf("edges %v, want %v", got.calls, want.calls)
	}
	return ""
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// scanWindow is the fresh scan of traces, whose records index names:
// every trace walked into a row store of its own. The merged scans of
// sealedScans must equal it.
func scanWindow(traces []*trace.Trace, names *trace.Names) *windowScan {
	rows := &rowStore{}
	rows.slide(0, len(traces))
	w := &windowScan{}
	w.reset(names, rows, 0, len(traces))
	for ti, tr := range traces {
		w.addTrace(tr, ti)
	}
	return w
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
// first four are the names the window's name table starts with, the
// last two are unknown to it and must be appended on first visit.
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
// (0–3, at most four levels deep). The traces share the name table
// names.
func decodeWindow(data []byte, names *trace.Names) []*trace.Trace {
	r := &fuzzReader{data: data}
	n := r.next() % 6
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = &trace.Trace{ID: trace.ID(i + 1), Root: decodeSpan(r, 0, 0), Names: names}
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
		names := trace.NewNames(fuzzServices[:4])
		traces := decodeWindow(data, names)
		w := scanWindow(traces, names)
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
