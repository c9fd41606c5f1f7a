package experiment

import (
	"fmt"
	"io"
	"math"
	"time"

	"sora/internal/cluster"
	"sora/internal/node"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// The ctrlplane experiment asks how slow the control plane can get
// before Sora stops winning: the Social Network read path is deployed
// on a simulated multi-node fleet (bin-packed pods, cold starts,
// endpoint-propagation lag) and subjected to an identical node-chaos
// schedule — node crash, endpoint stall across a pod crash, node drain
// — under each management strategy, at a fast and a slow control-plane
// speed. Replica scaling (HPA) pays the full cold-start plus
// propagation price on every reaction; Sora's pool retuning is a
// same-instant soft-resource write, so the gap between the strategies
// widens as the control plane slows down.
func init() {
	register(Experiment{
		ID:    "ctrlplane",
		Title: "Control plane: node chaos under cold starts and endpoint lag — static vs autoscaler vs Sora",
		Run:   RunCtrlPlane,
	})
}

// cpProfile is one control-plane speed setting of the sweep.
type cpProfile struct {
	name      string
	coldStart time.Duration // total scheduling + pull + warmup budget
	lag       time.Duration // endpoint-propagation delay
}

// ctrlPlaneProfiles is the sweep: a snappy managed cluster and a
// congested one (registry pulls measured in tens of seconds, laggy
// endpoint controllers).
var ctrlPlaneProfiles = []cpProfile{
	{name: "fast", coldStart: time.Second, lag: 500 * time.Millisecond},
	{name: "slow", coldStart: 15 * time.Second, lag: 5 * time.Second},
}

// ctrlPlaneFleet sizes the node fleet for an app: enough capacity that
// the deployment plus full HPA headroom survives one node loss, spread
// over four nodes. Pure arithmetic over the spec, so the fleet tracks
// topology changes deterministically.
func ctrlPlaneFleet(app cluster.App, prof cpProfile) *node.Config {
	total := 0.0
	for _, s := range app.Services {
		total += float64(float64(s.Replicas) * s.Cores)
	}
	headroom := float64(scenario.PostStorageMaxReplicas-1) * 2 // HPA surge on the 2-core Post Storage
	const nodes = 4
	cores := math.Ceil((total + headroom) / (nodes - 1))
	sched, pull, warm := node.SplitColdStart(prof.coldStart)
	return &node.Config{
		Nodes:       nodes,
		NodeCores:   cores,
		Policy:      node.PolicyBinPack,
		SchedDelay:  sched,
		PullDelay:   pull,
		WarmDelay:   warm,
		EndpointLag: prof.lag,
		LB:          node.LBPowerOfTwo,
	}
}

// runCtrlPlaneUnit executes one (profile, strategy) run under the
// nodechaos plan and collects per-window outcome statistics.
func runCtrlPlaneUnit(p Params, prof cpProfile, strat chaosStrategy, dur time.Duration) (*chaosResult, error) {
	if tel := p.Telemetry; tel != nil {
		tel.Publish(0, "run.manifest",
			telemetry.String("tool", "ctrlplane"),
			telemetry.String("profile", prof.name),
			telemetry.String("strategy", strat.String()),
			telemetry.Int64("coldstart_ms", int64(prof.coldStart/time.Millisecond)),
			telemetry.Int64("lag_ms", int64(prof.lag/time.Millisecond)),
			telemetry.Int64("seed", int64(p.Seed)),
			telemetry.Float("dur_s", dur.Seconds()),
		)
	}

	// The Figure-12 read path with two Post Storage pods, so a single
	// pod crash is survivable and the HPA has something to scale. The
	// client-conns pool starts under-provisioned (the knee at this load
	// sits near 11): the bottleneck is client-side, so the autoscaler's
	// extra Post Storage replicas cannot relieve it — they only pay the
	// cold-start and propagation bill — while Sora's first post-warmup
	// decision raises the pool to the knee in a single control interval.
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 4
	cfg.PostStorageCores = 2
	cfg.PostStorageReplicas = 2
	s := scenario.SocialNetworkReadPath(cfg)
	s.Seed = p.Seed
	s.Target = workload.ConstantUsers(1500)
	s.Duration = dur
	s.ControlPlane = ctrlPlaneFleet(s.App, prof)
	// The crash hidden inside the stall window hits Post Storage itself:
	// with propagation frozen, the balancers keep routing to the corpse
	// and the resilience layer has to absorb the refusals.
	s.FaultPlan = "nodechaos"
	s.FaultTargets.CrashService = topology.PostStorage
	strat.apply(&s)
	r, err := simulate(p.observe(s))
	if err != nil {
		return nil, err
	}

	warm := sim.Time(prof.coldStart + prof.lag + 10*time.Second)
	return collectChaos(r, prof.name, strat, warm, sim.Time(dur)), nil
}

// RunCtrlPlane sweeps both control-plane profiles across all three
// strategies (six independent deterministic runs) and prints the
// per-window comparison.
func RunCtrlPlane(p Params, w io.Writer) error {
	dur := p.scale(4 * time.Minute)
	strategies := []chaosStrategy{chaosStatic, chaosAuto, chaosSora}
	type unit struct {
		prof  cpProfile
		strat chaosStrategy
	}
	var units []unit
	for _, prof := range ctrlPlaneProfiles {
		for _, s := range strategies {
			units = append(units, unit{prof, s})
		}
	}

	grp := p.Telemetry.Group("runs")
	results, err := parMap(p, len(units), func(i int) (*chaosResult, error) {
		u := units[i]
		label := u.prof.name + "_" + sanitize(u.strat.String())
		res, rerr := runCtrlPlaneUnit(p.unitParams(grp.Unit(i, label)), u.prof, u.strat, dur)
		if rerr != nil {
			return nil, fmt.Errorf("ctrlplane %s/%v: %w", u.prof.name, u.strat, rerr)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "nodechaos plan over %v on a 4-node fleet, goodput SLA %v\n", dur, goodputRTT)
	for _, prof := range ctrlPlaneProfiles {
		fmt.Fprintf(w, "  %-4s control plane: cold start %v, endpoint lag %v\n", prof.name, prof.coldStart, prof.lag)
	}
	var csv [][]string
	for _, res := range results {
		fmt.Fprintf(w, "\n=== %s plane / %s — p99 %.0f ms, goodput %.0f req/s, completed %d, failed %d, degraded %d\n",
			res.app, res.strategy, res.p99.Seconds()*1000, res.goodput, res.completed, res.failed, res.degraded)
		csv = append(csv, writeChaosWindows(w, res, 15, 12)...)
	}
	fmt.Fprintf(w, "\n(every replica the autoscaler adds pays the full cold start plus the\n")
	fmt.Fprintf(w, " endpoint lag before it serves; Sora's pool retuning is an immediate\n")
	fmt.Fprintf(w, " soft-resource write, so its margin should widen on the slow plane)\n")

	return writeCSVStrings(p, "ctrlplane",
		[]string{"profile", "strategy", "fault", "target", "phase",
			"from_s", "to_s", "p99_ms", "goodput_rps", "good_frac", "degraded_frac", "violated_frac"}, csv)
}
