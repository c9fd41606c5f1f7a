// Command simrun executes a single parameterized scenario on the
// simulated cluster and prints summary metrics — the workhorse for
// manual calibration and exploration outside the registered experiments.
//
// Usage examples:
//
//	simrun -app sockshop -mix cart -users 950 -cart-threads 10
//	simrun -app sockshop -mix browse -catalogue-conns 20 -trace large_variation -peak 2400
//	simrun -app socialnetwork -mix timeline -ps-conns 15 -users 2000 -heavy
//	simrun -app sockshop -mix cart -fault-plan combo   # deterministic chaos run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/compare"
	"sora/internal/core"
	"sora/internal/fault"
	"sora/internal/metrics"
	"sora/internal/node"
	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runID     = flag.String("id", "simrun", "run identifier: recorder label, artifact base name, manifest id")
		appName   = flag.String("app", "sockshop", "application: sockshop | socialnetwork")
		mixName   = flag.String("mix", "", "mix: full (default) | cart | browse | timeline")
		users     = flag.Int("users", 900, "closed-loop user population (constant)")
		traceName = flag.String("trace", "", "bursty trace name (overrides -users as peak shape)")
		peak      = flag.Int("peak", 0, "peak users for -trace (default: -users)")
		duration  = flag.Duration("duration", 3*time.Minute, "run length (virtual time)")
		seed      = flag.Uint64("seed", 1, "simulation seed")

		cartCores   = flag.Float64("cart-cores", 2, "sock shop: cart CPU limit")
		cartThreads = flag.Int("cart-threads", 10, "sock shop: cart thread pool")
		catConns    = flag.Int("catalogue-conns", 15, "sock shop: catalogue DB pool")
		psConns     = flag.Int("ps-conns", 10, "social network: connections to post-storage")
		psCores     = flag.Float64("ps-cores", 2, "social network: post-storage CPU limit")
		heavy       = flag.Bool("heavy", false, "social network: heavy (10-post) reads")

		nodes     = flag.Int("nodes", 0, "deploy on a simulated N-node control plane (0 = instant pods, endpoint changes applied at once)")
		nodeCores = flag.Float64("node-cores", 32, "control plane: CPU cores per node")
		coldStart = flag.Duration("coldstart", time.Second, "control plane: pod cold-start budget (scheduling + image pull + warmup)")
		epLag     = flag.Duration("endpoint-lag", 500*time.Millisecond, "control plane: endpoint-propagation delay before membership changes reach the balancers")
		lbName    = flag.String("lb", "rr", "control plane: replica load balancer: rr | least | p2c")
		schedName = flag.String("sched", "spread", "control plane: placement policy: firstfit | spread | binpack")

		faultPlan = flag.String("fault-plan", "", "inject the named deterministic fault plan (see internal/fault.Names); installs the app's default resilience policies")
		strategy  = flag.String("strategy", "static", "management strategy: static | autoscaler | sora — autoscaler wires the app's hardware scaler (FIRM/HPA), sora adds the SCG pool controller on top")

		thresholds = flag.String("thresholds", "50ms,100ms,250ms,400ms", "comma-separated goodput thresholds")
		telDir     = flag.String("telemetry-dir", "", "directory for telemetry artifacts (optional)")
		tlFile     = flag.String("timeline", "", "write the flight-recorder timeline (JSONL) to FILE — soradash input")
		tlWindow   = flag.Duration("timeline-window", time.Second, "flight-recorder window length")
		tlSLA      = flag.Duration("timeline-sla", 400*time.Millisecond, "SLA splitting timeline completions into good/degraded/violated")
		archive    = flag.String("trace-archive", "", "write completed traces as a JSONL archive (tracedig input)")
		profFlag   = flag.Bool("profile", false, "print the latency-attribution blame table after the run")
		slo        = flag.Duration("slo", 0, "SLO for the -profile violation breakdown (0 = disabled)")
		foldedOut  = flag.String("folded", "", "write the folded-stack blame profile to FILE (flamegraph/soradiff input)")
		manOut     = flag.String("manifest", "", "write the run manifest (identity, params, artifact digests) to FILE")
	)
	flag.Parse()

	var app cluster.App
	var mix []cluster.WeightedRequest
	switch *appName {
	case "sockshop":
		cfg := topology.DefaultSockShop()
		cfg.CartCores = *cartCores
		cfg.CartThreads = *cartThreads
		cfg.CatalogueConns = *catConns
		app = topology.SockShop(cfg)
		switch *mixName {
		case "", "full":
			mix = app.Mix
		case "cart":
			mix = topology.CartOnlyMix(app)
		case "browse":
			mix = topology.BrowseOnlyMix(app)
		default:
			return fmt.Errorf("unknown sock shop mix %q", *mixName)
		}
	case "socialnetwork":
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = *psConns
		cfg.PostStorageCores = *psCores
		app = topology.SocialNetwork(cfg)
		switch *mixName {
		case "", "full":
			mix = app.Mix
		case "timeline":
			mix = topology.HomeTimelineOnlyMix(*heavy)
		default:
			return fmt.Errorf("unknown social network mix %q", *mixName)
		}
	default:
		return fmt.Errorf("unknown app %q", *appName)
	}

	mixLabel := *mixName
	if mixLabel == "" {
		mixLabel = "full"
	}

	k := sim.NewKernel(*seed)
	var rec *telemetry.Recorder
	if *telDir != "" || *tlFile != "" || *manOut != "" {
		rec = telemetry.NewRecorder(*runID)
		// Self-identification record: the run's artifacts lead with the
		// config that produced them, so soradiff can align two runs
		// without out-of-band context.
		rec.Publish(0, "run.manifest",
			telemetry.String("id", *runID),
			telemetry.String("tool", "simrun"),
			telemetry.String("app", *appName),
			telemetry.String("mix", mixLabel),
			telemetry.String("strategy", *strategy),
			telemetry.String("plan", *faultPlan),
			telemetry.Int64("seed", int64(*seed)),
			telemetry.Int("users", *users),
			telemetry.Float("dur_s", duration.Seconds()),
			telemetry.Int("nodes", *nodes),
		)
	}
	var ctrl *node.Config
	if *nodes > 0 {
		policy, err := node.ParsePolicy(*schedName)
		if err != nil {
			return err
		}
		lb, err := node.ParseLB(*lbName)
		if err != nil {
			return err
		}
		sched, pull, warmup := node.SplitColdStart(*coldStart)
		ctrl = &node.Config{
			Nodes:       *nodes,
			NodeCores:   *nodeCores,
			Policy:      policy,
			SchedDelay:  sched,
			PullDelay:   pull,
			WarmDelay:   warmup,
			EndpointLag: *epLag,
			LB:          lb,
		}
	}
	c, err := cluster.New(k, app, cluster.Options{Telemetry: rec, ControlPlane: ctrl})
	if err != nil {
		return err
	}
	if err := c.SetMix(mix); err != nil {
		return err
	}

	// Strategy wiring mirrors the chaos experiment: FIRM drives Sock
	// Shop's cart cores, HPA drives Social Network's post-storage
	// replicas, and "sora" layers the SCG controller over the same
	// hardware scaler to adapt the app's bottleneck pool.
	var (
		mon      *core.Monitor
		ctl      *core.Controller
		hwTicker *sim.Ticker
	)
	if *strategy != "static" {
		if *strategy != "autoscaler" && *strategy != "sora" {
			return fmt.Errorf("unknown strategy %q (static | autoscaler | sora)", *strategy)
		}
		var hw core.HardwareScaler
		var managed []core.ManagedResource
		var refs []cluster.ResourceRef
		switch *appName {
		case "sockshop":
			ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
			refs = []cluster.ResourceRef{ref}
			firm, ferr := autoscaler.NewFIRM(c, autoscaler.FIRMConfig{
				Service: topology.Cart,
				SLO:     400 * time.Millisecond,
				Ladder:  []float64{2, 4},
			})
			if ferr != nil {
				return ferr
			}
			hw = firm
			managed = []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}}
		case "socialnetwork":
			ref := cluster.ResourceRef{
				Service: topology.HomeTimeline,
				Kind:    cluster.PoolClientConns,
				Target:  topology.PostStorage,
			}
			refs = []cluster.ResourceRef{ref}
			hpa, herr := autoscaler.NewHPA(c, autoscaler.HPAConfig{
				Service:     topology.PostStorage,
				MaxReplicas: 6,
			})
			if herr != nil {
				return herr
			}
			hw = hpa
			managed = []core.ManagedResource{{Ref: ref, Min: 4, Max: 300}}
		}
		if *strategy == "autoscaler" {
			hwTicker = k.Every(core.DefaultControlPeriod, func() { hw.Step(k.Now()) })
		} else {
			mon, err = core.NewMonitor(c, 0, refs, c.ServiceNames())
			if err != nil {
				return err
			}
			scg, serr := core.NewSCG(c, mon, core.SCGConfig{
				SLA:    400 * time.Millisecond,
				Window: 45 * time.Second,
			})
			if serr != nil {
				return serr
			}
			ctl, err = core.NewController(c, core.ControllerConfig{
				Model:   scg,
				Scaler:  hw,
				Managed: managed,
				Warmup:  30 * time.Second,
			})
			if err != nil {
				return err
			}
		}
	}
	var flight *cluster.FlightRecorder
	if *tlFile != "" {
		flight, err = c.ArmFlightRecorder(*tlWindow, *tlSLA)
		if err != nil {
			return err
		}
	}
	var e2e metrics.CompletionLog
	c.OnComplete(func(tr *trace.Trace) { e2e.AddFlagged(k.Now(), tr.ResponseTime(), tr.Root.Degraded) })

	var eng *fault.Engine
	if *faultPlan != "" {
		var policies []topology.EdgePolicy
		var targets fault.Targets
		switch *appName {
		case "sockshop":
			policies = topology.SockShopResilience()
			targets = fault.Targets{
				CrashService: topology.Cart,
				SlowService:  topology.CartDB,
				EdgeCaller:   topology.FrontEnd,
				EdgeCallee:   topology.Cart,
				ClampRef:     cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads},
				ClampSize:    4,
			}
		case "socialnetwork":
			policies = topology.SocialNetworkResilience()
			targets = fault.Targets{
				CrashService: topology.SocialGraph,
				SlowService:  topology.PostStorage,
				EdgeCaller:   topology.HomeTimeline,
				EdgeCallee:   topology.PostStorage,
				ClampRef: cluster.ResourceRef{
					Service: topology.HomeTimeline,
					Kind:    cluster.PoolClientConns,
					Target:  topology.PostStorage,
				},
				ClampSize: 4,
			}
		}
		// Node-level plans need the simulated control plane.
		targets.NodeFaults = *nodes > 0
		if err := topology.ApplyResilience(c, policies); err != nil {
			return err
		}
		plan, err := fault.NamedPlan(*faultPlan, targets, *duration)
		if err != nil {
			return err
		}
		eng, err = fault.New(c, plan)
		if err != nil {
			return err
		}
		eng.Start()
	}
	var agg *profile.Aggregator
	if *profFlag || *foldedOut != "" {
		agg = profile.NewAggregator(*slo)
		c.OnComplete(agg.Add)
	}
	var archived []*trace.Trace
	if *archive != "" {
		c.OnComplete(func(tr *trace.Trace) { archived = append(archived, tr) })
	}

	target := workload.ConstantUsers(*users)
	if *traceName != "" {
		tr, err := workload.TraceByName(*traceName)
		if err != nil {
			return err
		}
		p := *peak
		if p <= 0 {
			p = *users
		}
		target = workload.TraceUsers(tr, *duration, p)
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: target,
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return err
	}
	if mon != nil {
		mon.Start()
	}
	loop.Start()
	if ctl != nil {
		ctl.Start()
	}
	start := time.Now() //soravet:allow wallclock CLI reports real elapsed wall time alongside virtual-time results
	k.RunUntil(sim.Time(*duration))
	flight.Stop() // the window ticker must stop before the drain
	if ctl != nil {
		ctl.Stop()
	}
	if hwTicker != nil {
		hwTicker.Stop()
	}
	loop.Stop()
	if mon != nil {
		mon.Stop()
	}
	k.Run()
	c.FlushTelemetry()
	agg.FlushTelemetry(rec)
	if *telDir != "" {
		if err := rec.WriteFiles(*telDir, *runID); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	if *tlFile != "" {
		f, err := os.Create(*tlFile)
		if err != nil {
			return err
		}
		if err := rec.WriteTimeline(f); err != nil {
			f.Close()
			return fmt.Errorf("timeline: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *archive != "" {
		f, err := os.Create(*archive)
		if err != nil {
			return err
		}
		if err := trace.ExportAll(f, archived); err != nil {
			f.Close()
			return fmt.Errorf("trace archive: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("archived %d traces to %s\n", len(archived), *archive)
	}
	if *foldedOut != "" {
		f, err := os.Create(*foldedOut)
		if err != nil {
			return err
		}
		if err := profile.WriteFolded(f, agg.Snapshot()); err != nil {
			f.Close()
			return fmt.Errorf("folded: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *manOut != "" {
		if err := writeRunManifest(*manOut, *runID, int64(*seed), rec,
			[]compare.KV{
				compare.Str("app", *appName),
				compare.Str("mix", mixLabel),
				compare.Str("strategy", *strategy),
				compare.Str("plan", *faultPlan),
				compare.Int("users", int64(*users)),
				compare.Str("trace", *traceName),
				compare.Str("duration", duration.String()),
				compare.Str("timeline_window", tlWindow.String()),
				compare.Int("nodes", int64(*nodes)),
				compare.Str("coldstart", coldStart.String()),
				compare.Str("endpoint_lag", epLag.String()),
				compare.Str("lb", *lbName),
			},
			artifactPaths(*telDir, *runID, *tlFile, *foldedOut, *archive)); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}

	warm := sim.Time(10 * time.Second)
	if warm > sim.Time(*duration)/5 {
		warm = sim.Time(*duration) / 5
	}
	end := sim.Time(*duration)

	wall := time.Since(start).Round(time.Millisecond) //soravet:allow wallclock CLI reports real elapsed wall time alongside virtual-time results
	fmt.Printf("app=%s mix=%s duration=%v seed=%d (wall %v, %d events)\n",
		app.Name, *mixName, *duration, *seed, wall, k.Processed())
	if ctrl != nil {
		fmt.Printf("control plane: %d nodes × %g cores, coldstart=%v endpoint-lag=%v lb=%s sched=%s\n",
			*nodes, *nodeCores, *coldStart, *epLag, *lbName, *schedName)
	}
	fmt.Printf("completed=%d dropped=%d throughput=%.0f req/s\n",
		c.Completed(), c.Dropped(), e2e.ThroughputRate(warm, end))
	if eng != nil {
		fmt.Printf("failed=%d degraded=%d refused=%d lost=%d timedout=%d retries=%d breaker_rejected=%d\n",
			c.Failed(), c.Degraded(), c.Refused(), c.LostCalls(), c.TimedOut(),
			c.Retries(), c.BreakerRejections())
		fmt.Println("fault windows:")
		for _, win := range eng.Windows() {
			to := "∞"
			if win.End > 0 {
				to = fmt.Sprintf("%.0fs", win.End.Seconds())
			}
			fmt.Printf("  %-10s %-28s %.0fs - %s\n",
				win.Fault.Kind, win.Target, win.Start.Seconds(), to)
		}
	}
	for _, p := range []float64{50, 90, 95, 99} {
		if v, err := e2e.Percentile(p, warm, end); err == nil {
			fmt.Printf("p%-3.0f = %v\n", p, v.Round(time.Millisecond))
		}
	}
	var ths []time.Duration
	for _, s := range splitComma(*thresholds) {
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad threshold %q: %w", s, err)
		}
		ths = append(ths, d)
	}
	for _, th := range ths {
		fmt.Printf("goodput(%v) = %.0f req/s\n", th, e2e.GoodputRate(warm, end, th))
	}
	fmt.Println("\nper-service CPU utilization (busy/capacity):")
	for _, name := range c.ServiceNames() {
		svc, err := c.Service(name)
		if err != nil {
			continue
		}
		capacity := svc.CumulativeCapacity()
		if capacity <= 0 {
			continue
		}
		fmt.Printf("  %-24s %5.1f%%  (replicas=%d cores=%g)\n",
			name, svc.CumulativeBusy()/capacity*100, svc.Replicas(), svc.Cores())
	}
	if agg != nil {
		fmt.Println()
		if err := agg.Snapshot().WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// artifactPaths collects every artifact file this invocation wrote.
func artifactPaths(telDir, id, tlFile, foldedOut, archive string) []string {
	var files []string
	if telDir != "" {
		for _, suffix := range []string{".events.jsonl", ".metrics.prom", ".trace.json"} {
			files = append(files, filepath.Join(telDir, id+suffix))
		}
	}
	for _, f := range []string{tlFile, foldedOut, archive} {
		if f != "" {
			files = append(files, f)
		}
	}
	return files
}

// writeRunManifest digests the artifacts relative to the manifest's own
// directory and writes the manifest file.
func writeRunManifest(path, id string, seed int64, rec *telemetry.Recorder, params []compare.KV, files []string) error {
	dir, err := filepath.Abs(filepath.Dir(path))
	if err != nil {
		return err
	}
	abs := make([]string, 0, len(files))
	for _, f := range files {
		a, err := filepath.Abs(f)
		if err != nil {
			return err
		}
		abs = append(abs, a)
	}
	var counters []compare.KV
	for _, m := range rec.CounterTotals() {
		if strings.Contains(m.Name, "_bucket{") {
			// Histogram buckets live in the .metrics.prom artifact (and
			// its digest); repeating hundreds of them here would bury the
			// closing counters the manifest exists to surface.
			continue
		}
		counters = append(counters, compare.Num(m.Name, m.Value))
	}
	m, err := compare.BuildManifest(dir, id, "simrun", seed, params, counters, abs)
	if err != nil {
		return err
	}
	enc, err := compare.EncodeManifest(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
