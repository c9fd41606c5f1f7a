package main

import (
	"math"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/fault"
	"sora/internal/metrics"
	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

// goodputSLA is the end-to-end latency limit of the paper's goodput
// (internal/experiment's goodputRTT): a completion within it, undegraded,
// is good.
const goodputSLA = 400 * time.Millisecond

// quickDuration is the virtual length of every workload under -quick.
const quickDuration = 40 * time.Second

// scenario is one benchmark workload: a fixed wiring of the simulator,
// built from the public layer APIs in the same order the experiment
// that ships it uses, so kernel timer sequence numbers — and therefore
// every simulated output — match (wiring_test.go pins chaos and
// ctrlplane against BASELINE.json). All four drive a closed loop of
// simulated users; the benchmark sends no traffic of its own.
type scenario struct {
	name string
	// dur is the virtual length of one run; warm is where the sim_*
	// statistics start.
	dur, warm time.Duration
	build     func(seed uint64, dur time.Duration) (*rig, error)
}

// scenarios lists the workloads in run order. Each stresses a different
// layer, so a change to one layer moves one workload and leaves another
// as its no-change control.
var scenarios = []scenario{
	// The pure request path: static Social Network with the full mix at
	// 900 users, no controller, no faults, legacy dispatch. The kernel,
	// PS servers and the cluster request path dominate; controller
	// changes must not move it.
	{name: "steady", dur: 4 * time.Minute, warm: 10 * time.Second, build: buildSteady},
	// The controller read path: the Fig. 12 Sora case, home-timeline
	// reads under Large Variation (peak 3200 users), HPA plus SCG, light
	// to heavy reads at 450/720 of the run. SCG decisions and the trace
	// warehouse they scan take a quarter of the CPU, and it has the
	// largest heap. 90 virtual seconds hold four control decisions in
	// under 400 MB of live heap.
	{name: "drift", dur: 90 * time.Second, warm: 10 * time.Second, build: buildDrift},
	// Cancel-heavy kernel use: Sock Shop cart at 900 users, FIRM plus
	// SCG, resilience policies and the combo fault plan. Every call arms
	// a timeout and almost every timeout is cancelled; retries and
	// breakers waste work.
	{name: "chaos", dur: 4 * time.Minute, warm: 10 * time.Second, build: buildChaos},
	// The second dispatch path: the request path of steady's services on
	// a 4-node bin-packed fleet with p2c balancing over 500 ms-lagged
	// endpoint views, under node chaos, with Sora.
	{name: "ctrlplane", dur: 2 * time.Minute, warm: 11500 * time.Millisecond, build: buildCtrlPlane},
}

// scenarioByName resolves a -workload value.
func scenarioByName(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}

// rig is one deployed scenario: the cluster, its closed-loop users, the
// monitor every experiment rig carries, and the optional controller and
// fault engine.
type rig struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	mon  *core.Monitor
	loop *workload.ClosedLoop
	ctl  *core.Controller
	eng  *fault.Engine

	// e2e records every completion for the whole run; the cluster's own
	// log is pruned to its retention window.
	e2e *metrics.CompletionLog

	// warm and end bound the statistics window [warm, end).
	warm, end sim.Time

	// resolved counts done callbacks seen by the Submit wrapper;
	// resolvedWarm those inside [warm, end).
	resolved, resolvedWarm uint64

	// spans counts the spans of completed traces once countSpans is on.
	spans uint64
}

// countSpans makes the rig count the spans of every completed trace.
// The walk is the benchmark's own code, not trace.SpanCount, so its cost
// is charged to the harness rather than the trace layer.
func (r *rig) countSpans() {
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		r.spans++
		for _, c := range s.Children {
			walk(c)
		}
	}
	r.c.OnComplete(func(tr *trace.Trace) { walk(tr.Root) })
}

// rigConfig mirrors the fields of internal/experiment's rigConfig that
// the benchmark workloads use.
type rigConfig struct {
	seed   uint64
	app    cluster.App
	mix    []cluster.WeightedRequest
	refs   []cluster.ResourceRef
	target workload.TargetFunc
	ctrl   *node.Config
}

// newRig wires a cluster, monitor and closed loop exactly as
// internal/experiment's newRig does, with the benchmark's Submit wrapper
// counting resolutions.
func newRig(cfg rigConfig) (*rig, error) {
	k := sim.NewKernel(cfg.seed)
	c, err := cluster.New(k, cfg.app, cluster.Options{ControlPlane: cfg.ctrl})
	if err != nil {
		return nil, err
	}
	if cfg.mix != nil {
		if err := c.SetMix(cfg.mix); err != nil {
			return nil, err
		}
	}
	mon, err := core.NewMonitor(c, 0, cfg.refs, c.ServiceNames())
	if err != nil {
		return nil, err
	}
	r := &rig{k: k, c: c, mon: mon, e2e: &metrics.CompletionLog{}}
	r.loop, err = workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: cfg.target,
		Submit: func(done func()) {
			c.SubmitMixWith(func() {
				r.resolved++
				if now := k.Now(); now >= r.warm && now < r.end {
					r.resolvedWarm++
				}
				done()
			})
		},
	})
	if err != nil {
		return nil, err
	}
	c.OnComplete(func(tr *trace.Trace) {
		r.e2e.AddFlagged(k.Now(), tr.ResponseTime(), tr.Root.Degraded)
	})
	return r, nil
}

// attachSora adds the SCG controller (45 s window, 30 s warmup) over the
// given hardware scaler, as the chaos, ctrlplane and fig12 experiments do.
func (r *rig) attachSora(hw core.HardwareScaler, managed core.ManagedResource) error {
	scg, err := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputSLA, Window: 45 * time.Second})
	if err != nil {
		return err
	}
	r.ctl, err = core.NewController(r.c, core.ControllerConfig{
		Model:   scg,
		Scaler:  hw,
		Managed: []core.ManagedResource{managed},
		Warmup:  30 * time.Second,
	})
	return err
}

// addFaults builds the named fault plan; execute starts the engine
// before the monitor, loop and controller, as the experiments do.
func (r *rig) addFaults(plan string, targets fault.Targets, dur time.Duration) error {
	p, err := fault.NamedPlan(plan, targets, dur)
	if err != nil {
		return err
	}
	r.eng, err = fault.New(r.c, p)
	return err
}

// homeTimelineConns is the Figure-12 knob: Home Timeline's client
// connection pool to Post Storage.
var homeTimelineConns = cluster.ResourceRef{
	Service: topology.HomeTimeline,
	Kind:    cluster.PoolClientConns,
	Target:  topology.PostStorage,
}

func buildSteady(seed uint64, _ time.Duration) (*rig, error) {
	return newRig(rigConfig{
		seed:   seed,
		app:    topology.SocialNetwork(topology.DefaultSocialNetwork()),
		target: workload.ConstantUsers(900),
	})
}

// buildDrift is internal/experiment's fig12 Sora case without its
// reporting timeline.
func buildDrift(seed uint64, dur time.Duration) (*rig, error) {
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 15
	cfg.PostStorageCores = 2
	r, err := newRig(rigConfig{
		seed:   seed,
		app:    topology.SocialNetwork(cfg),
		mix:    topology.HomeTimelineOnlyMix(false),
		refs:   []cluster.ResourceRef{homeTimelineConns},
		target: workload.TraceUsers(workload.LargeVariationTrace(), dur, 3200),
	})
	if err != nil {
		return nil, err
	}
	r.k.At(sim.Time(time.Duration(float64(dur)*450.0/720.0)), func() {
		if err := r.c.SetMix(topology.HomeTimelineOnlyMix(true)); err != nil {
			panic(err) // a static mix: only a bug can make it invalid
		}
	})
	hpa, err := autoscaler.NewHPA(r.c, autoscaler.HPAConfig{Service: topology.PostStorage, MaxReplicas: 6})
	if err != nil {
		return nil, err
	}
	return r, r.attachSora(hpa, core.ManagedResource{Ref: homeTimelineConns, Min: 4, Max: 300})
}

// buildChaos is internal/experiment's runChaosUnit for sockshop × Sora
// under the combo plan.
func buildChaos(seed uint64, dur time.Duration) (*rig, error) {
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 10
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	r, err := newRig(rigConfig{
		seed:   seed,
		app:    app,
		mix:    topology.CartOnlyMix(app),
		refs:   []cluster.ResourceRef{ref},
		target: workload.ConstantUsers(900),
	})
	if err != nil {
		return nil, err
	}
	if err := topology.ApplyResilience(r.c, topology.SockShopResilience()); err != nil {
		return nil, err
	}
	firm, err := autoscaler.NewFIRM(r.c, autoscaler.FIRMConfig{
		Service: topology.Cart,
		SLO:     goodputSLA,
		Ladder:  []float64{2, 4},
	})
	if err != nil {
		return nil, err
	}
	if err := r.attachSora(firm, core.ManagedResource{Ref: ref, Min: 2, Max: 200}); err != nil {
		return nil, err
	}
	return r, r.addFaults("combo", fault.Targets{
		CrashService: topology.Cart,
		SlowService:  topology.CartDB,
		EdgeCaller:   topology.FrontEnd,
		EdgeCallee:   topology.Cart,
		ClampRef:     ref,
		ClampSize:    4,
	}, dur)
}

// ctrlPlaneMaxReplicas bounds the HPA on Post Storage (internal/experiment's
// ctrlPlaneMaxReplicas).
const ctrlPlaneMaxReplicas = 6

// buildCtrlPlane is internal/experiment's runCtrlPlaneUnit for the fast
// profile (1 s cold start, 500 ms endpoint lag) × Sora.
func buildCtrlPlane(seed uint64, dur time.Duration) (*rig, error) {
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 4
	cfg.PostStorageCores = 2
	cfg.PostStorageReplicas = 2
	app := topology.SocialNetwork(cfg)
	r, err := newRig(rigConfig{
		seed:   seed,
		app:    app,
		mix:    topology.HomeTimelineOnlyMix(false),
		refs:   []cluster.ResourceRef{homeTimelineConns},
		target: workload.ConstantUsers(1500),
		ctrl:   ctrlPlaneFleet(app, time.Second, 500*time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	if err := topology.ApplyResilience(r.c, topology.SocialNetworkResilience()); err != nil {
		return nil, err
	}
	hpa, err := autoscaler.NewHPA(r.c, autoscaler.HPAConfig{Service: topology.PostStorage, MaxReplicas: ctrlPlaneMaxReplicas})
	if err != nil {
		return nil, err
	}
	if err := r.attachSora(hpa, core.ManagedResource{Ref: homeTimelineConns, Min: 4, Max: 300}); err != nil {
		return nil, err
	}
	return r, r.addFaults("nodechaos", fault.Targets{
		CrashService: topology.PostStorage,
		NodeFaults:   true,
	}, dur)
}

// ctrlPlaneFleet is internal/experiment's ctrlPlaneFleet: four bin-packed
// nodes sized so the deployment plus full HPA headroom survives one node
// loss, with p2c balancing.
func ctrlPlaneFleet(app cluster.App, coldStart, lag time.Duration) *node.Config {
	total := 0.0
	for _, s := range app.Services {
		total += float64(s.Replicas) * s.Cores
	}
	headroom := float64(ctrlPlaneMaxReplicas-1) * 2
	const nodes = 4
	sched, pull, warm := node.SplitColdStart(coldStart)
	return &node.Config{
		Nodes:       nodes,
		NodeCores:   math.Ceil((total + headroom) / (nodes - 1)),
		Policy:      node.PolicyBinPack,
		SchedDelay:  sched,
		PullDelay:   pull,
		WarmDelay:   warm,
		EndpointLag: lag,
		LB:          node.LBPowerOfTwo,
	}
}
