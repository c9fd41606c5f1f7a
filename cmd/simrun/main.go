// Command simrun executes a single parameterized scenario on the
// simulated cluster and prints summary metrics — the workhorse for
// manual calibration and exploration outside the registered experiments.
// Its flags fill in one scenario.Scenario: the Sock Shop Cart scenario
// or the Social Network read path, with the chaos experiment's scalers,
// model, resilience policies and fault targets.
//
// Usage examples:
//
//	simrun -app sockshop -mix cart -users 950 -cart-threads 10
//	simrun -app sockshop -mix browse -catalogue-conns 20 -trace large_variation -peak 2400
//	simrun -app socialnetwork -mix timeline -ps-conns 15 -users 2000 -heavy
//	simrun -app sockshop -mix cart -fault-plan combo   # deterministic chaos run
//	simrun -app sockshop -cart-threads 5 -trace big_spike -peak 900 -duration 2m -folded big_spike.folded
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sora/internal/compare"
	"sora/internal/node"
	"sora/internal/profile"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

func main() {
	if _, err := simulate(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

// simulate parses args into a scenario, runs it, writes its artifacts
// and prints the report to w. It returns the finished rig.
func simulate(args []string, w io.Writer) (*scenario.Rig, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		runID     = fs.String("id", "simrun", "run identifier: recorder label, artifact base name, manifest id")
		appName   = fs.String("app", "sockshop", "application: sockshop | socialnetwork")
		mixName   = fs.String("mix", "", "mix: full (default) | cart | browse | timeline")
		users     = fs.Int("users", 900, "closed-loop user population (constant)")
		traceName = fs.String("trace", "", "bursty trace name (overrides -users as peak shape)")
		peak      = fs.Int("peak", 0, "peak users for -trace (default: -users)")
		duration  = fs.Duration("duration", 3*time.Minute, "run length (virtual time)")
		seed      = fs.Uint64("seed", 1, "simulation seed")

		cartCores   = fs.Float64("cart-cores", 2, "sock shop: cart CPU limit")
		cartThreads = fs.Int("cart-threads", 10, "sock shop: cart thread pool")
		catConns    = fs.Int("catalogue-conns", 15, "sock shop: catalogue DB pool")
		psConns     = fs.Int("ps-conns", 10, "social network: connections to post-storage")
		psCores     = fs.Float64("ps-cores", 2, "social network: post-storage CPU limit")
		heavy       = fs.Bool("heavy", false, "social network: heavy (10-post) reads")

		nodes     = fs.Int("nodes", 0, "deploy on a simulated N-node control plane (0 = instant pods, endpoint changes applied at once)")
		nodeCores = fs.Float64("node-cores", 32, "control plane: CPU cores per node")
		coldStart = fs.Duration("coldstart", time.Second, "control plane: pod cold-start budget (scheduling + image pull + warmup)")
		epLag     = fs.Duration("endpoint-lag", 500*time.Millisecond, "control plane: endpoint-propagation delay before membership changes reach the balancers")
		lbName    = fs.String("lb", "rr", "control plane: replica load balancer: rr | least | p2c")
		schedName = fs.String("sched", "spread", "control plane: placement policy: firstfit | spread | binpack")

		faultPlan = fs.String("fault-plan", "", "inject the named deterministic fault plan (see internal/fault.Names); installs the app's default resilience policies")
		strategy  = fs.String("strategy", "static", "management strategy: static | autoscaler | sora — autoscaler wires the app's hardware scaler (FIRM/HPA), sora adds the SCG pool controller on top")

		thresholds = fs.String("thresholds", "50ms,100ms,250ms,400ms", "comma-separated goodput thresholds")
		telDir     = fs.String("telemetry-dir", "", "directory for telemetry artifacts (optional)")
		tlFile     = fs.String("timeline", "", "write the flight-recorder timeline (JSONL) to FILE — soradash input")
		tlWindow   = fs.Duration("timeline-window", time.Second, "flight-recorder window length")
		tlSLA      = fs.Duration("timeline-sla", 400*time.Millisecond, "SLA splitting timeline completions into good/degraded/violated")
		archive    = fs.String("trace-archive", "", "write completed traces as a JSONL archive (tracedig input)")
		profFlag   = fs.Bool("profile", false, "print the latency-attribution blame table after the run")
		slo        = fs.Duration("slo", 0, "SLO for the -profile violation breakdown (0 = disabled)")
		foldedOut  = fs.String("folded", "", "write the folded-stack blame profile to FILE (flamegraph/soradiff input)")
		manOut     = fs.String("manifest", "", "write the run manifest (identity, params, artifact digests) to FILE")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *manOut != "" {
		// Refuse a layout the manifest cannot describe before running.
		if _, _, err := manifestLayout(*manOut, artifactPaths(*telDir, *runID, *tlFile, *foldedOut, *archive)); err != nil {
			return nil, fmt.Errorf("manifest: %w", err)
		}
	}

	var s scenario.Scenario
	switch *appName {
	case "sockshop":
		cfg := topology.DefaultSockShop()
		cfg.CartCores = *cartCores
		cfg.CartThreads = *cartThreads
		cfg.CatalogueConns = *catConns
		s = scenario.SockShopCart(cfg, scenario.SLA)
		switch *mixName {
		case "", "full":
			s.Mix = nil
		case "cart":
		case "browse":
			s.Mix = topology.BrowseOnlyMix(s.App)
		default:
			return nil, fmt.Errorf("unknown sock shop mix %q", *mixName)
		}
	case "socialnetwork":
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = *psConns
		cfg.PostStorageCores = *psCores
		s = scenario.SocialNetworkReadPath(cfg)
		switch *mixName {
		case "", "full":
			s.Mix = nil
		case "timeline":
			s.Mix = topology.HomeTimelineOnlyMix(*heavy)
		default:
			return nil, fmt.Errorf("unknown social network mix %q", *mixName)
		}
	default:
		return nil, fmt.Errorf("unknown app %q", *appName)
	}
	// FIRM drives Sock Shop's cart cores, HPA drives Social Network's
	// post-storage replicas, and "sora" layers the SCG controller over
	// the same hardware scaler to adapt the app's bottleneck pool.
	switch *strategy {
	case "static":
		s.Scaler, s.Model = nil, nil
	case "autoscaler":
		s.Model = nil
	case "sora":
	default:
		return nil, fmt.Errorf("unknown strategy %q (static | autoscaler | sora)", *strategy)
	}
	s.Seed = *seed
	s.Duration = *duration
	s.FaultPlan = *faultPlan
	s.Target = workload.ConstantUsers(*users)
	if *traceName != "" {
		tr, err := workload.TraceByName(*traceName)
		if err != nil {
			return nil, err
		}
		p := *peak
		if p <= 0 {
			p = *users
		}
		s.Target = workload.TraceUsers(tr, *duration, p)
	}

	mixLabel := *mixName
	if mixLabel == "" {
		mixLabel = "full"
	}
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
	s.Telemetry = rec
	if *tlFile != "" {
		s.FlightWindow, s.FlightSLA = *tlWindow, *tlSLA
	}
	if *nodes > 0 {
		policy, err := node.ParsePolicy(*schedName)
		if err != nil {
			return nil, err
		}
		lb, err := node.ParseLB(*lbName)
		if err != nil {
			return nil, err
		}
		sched, pull, warmup := node.SplitColdStart(*coldStart)
		s.ControlPlane = &node.Config{
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
	var agg *profile.Aggregator
	if *profFlag || *foldedOut != "" {
		agg = profile.NewAggregator(*slo)
		s.Profile = agg
	}
	r, err := s.Build()
	if err != nil {
		return nil, err
	}
	var archived []*trace.Trace
	if *archive != "" {
		r.C.OnComplete(func(tr *trace.Trace) { archived = append(archived, tr.Retain()) })
	}
	start := time.Now() //soravet:allow wallclock CLI reports real elapsed wall time alongside virtual-time results
	r.Run()
	c := r.C
	agg.FlushTelemetry(rec)
	if *telDir != "" {
		if err := rec.WriteFiles(*telDir, *runID); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
	}
	if *tlFile != "" {
		f, err := os.Create(*tlFile)
		if err != nil {
			return nil, err
		}
		if err := rec.WriteTimeline(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("timeline: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if *archive != "" {
		f, err := os.Create(*archive)
		if err != nil {
			return nil, err
		}
		if err := trace.ExportAll(f, archived); err != nil {
			f.Close()
			return nil, fmt.Errorf("trace archive: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "archived %d traces to %s\n", len(archived), *archive)
	}
	if *foldedOut != "" {
		f, err := os.Create(*foldedOut)
		if err != nil {
			return nil, err
		}
		if err := profile.WriteFolded(f, agg.Snapshot()); err != nil {
			f.Close()
			return nil, fmt.Errorf("folded: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, err
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
			return nil, fmt.Errorf("manifest: %w", err)
		}
	}

	warm := sim.Time(10 * time.Second)
	if warm > sim.Time(*duration)/5 {
		warm = sim.Time(*duration) / 5
	}
	end := sim.Time(*duration)

	wall := time.Since(start).Round(time.Millisecond) //soravet:allow wallclock CLI reports real elapsed wall time alongside virtual-time results
	fmt.Fprintf(w, "app=%s mix=%s duration=%v seed=%d (wall %v, %d events)\n",
		s.App.Name, *mixName, *duration, *seed, wall, r.K.Processed())
	if s.ControlPlane != nil {
		fmt.Fprintf(w, "control plane: %d nodes × %g cores, coldstart=%v endpoint-lag=%v lb=%s sched=%s\n",
			*nodes, *nodeCores, *coldStart, *epLag, *lbName, *schedName)
	}
	fmt.Fprintf(w, "completed=%d throughput=%.0f req/s\n",
		c.Completed(), r.E2E.ThroughputRate(warm, end))
	if r.Faults != nil {
		fmt.Fprintf(w, "failed=%d degraded=%d refused=%d lost=%d timedout=%d retries=%d breaker_rejected=%d\n",
			c.Failed(), c.Degraded(), c.Refused(), c.LostCalls(), c.TimedOut(),
			c.Retries(), c.BreakerRejections())
		fmt.Fprintln(w, "fault windows:")
		for _, win := range r.Faults.Windows() {
			to := "∞"
			if win.End > 0 {
				to = fmt.Sprintf("%.0fs", win.End.Seconds())
			}
			fmt.Fprintf(w, "  %-10s %-28s %.0fs - %s\n",
				win.Fault.Kind, win.Target, win.Start.Seconds(), to)
		}
	}
	for _, p := range []float64{50, 90, 95, 99} {
		if v, err := r.E2E.Percentile(p, warm, end); err == nil {
			fmt.Fprintf(w, "p%-3.0f = %v\n", p, v.Round(time.Millisecond))
		}
	}
	var ths []time.Duration
	for _, s := range splitComma(*thresholds) {
		d, err := time.ParseDuration(s)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %w", s, err)
		}
		ths = append(ths, d)
	}
	for _, th := range ths {
		fmt.Fprintf(w, "goodput(%v) = %.0f req/s\n", th, r.E2E.GoodputRate(warm, end, th))
	}
	fmt.Fprintln(w, "\nper-service CPU utilization (busy/capacity):")
	for _, name := range c.ServiceNames() {
		svc, err := c.Service(name)
		if err != nil {
			continue
		}
		capacity := svc.CumulativeCapacity()
		if capacity <= 0 {
			continue
		}
		fmt.Fprintf(w, "  %-24s %5.1f%%  (replicas=%d cores=%g)\n",
			name, svc.CumulativeBusy()/capacity*100, svc.Replicas(), svc.Cores())
	}
	if agg != nil {
		fmt.Fprintln(w)
		if err := agg.Snapshot().WriteTable(w); err != nil {
			return nil, err
		}
	}
	return r, nil
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

// manifestLayout returns the absolute directory of the manifest at path
// and the absolute paths of files, refusing a file outside that
// directory: a manifest names its artifacts by paths inside its own
// directory (compare.ArtifactName).
func manifestLayout(path string, files []string) (string, []string, error) {
	dir, err := filepath.Abs(filepath.Dir(path))
	if err != nil {
		return "", nil, err
	}
	abs := make([]string, 0, len(files))
	for _, f := range files {
		a, err := filepath.Abs(f)
		if err != nil {
			return "", nil, err
		}
		if _, err := compare.ArtifactName(dir, a); err != nil {
			return "", nil, err
		}
		abs = append(abs, a)
	}
	return dir, abs, nil
}

// writeRunManifest digests the artifacts relative to the manifest's own
// directory and writes the manifest file.
func writeRunManifest(path, id string, seed int64, rec *telemetry.Recorder, params []compare.KV, files []string) error {
	dir, abs, err := manifestLayout(path, files)
	if err != nil {
		return err
	}
	m, err := compare.BuildManifest(dir, id, "simrun", seed, params, compare.ManifestCounters(rec), abs)
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
