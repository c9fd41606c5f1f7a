package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/fault"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// The chaos experiment runs an identical deterministic fault schedule
// (crash, slow node, lossy edge, pool clamp — see internal/fault)
// against both benchmark applications under three management
// strategies, and reports how each rides out every fault window:
// P99, goodput, and the degraded/violated outcome fractions before,
// during, and after each fault.
func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Chaos: fault injection — static vs autoscaler vs Sora on identical fault schedules",
		Run:   func(p Params, w io.Writer) error { return RunChaos(p, w, "combo") },
	})
}

// chaosStrategy is the management configuration of one chaos run.
type chaosStrategy int

const (
	// chaosStatic fixes the deployment exactly as configured: no
	// hardware scaler, no soft-resource adaptation.
	chaosStatic chaosStrategy = iota + 1
	// chaosAuto drives the scenario's hardware autoscaler (FIRM on Sock
	// Shop, HPA on Social Network) with static soft resources.
	chaosAuto
	// chaosSora adds the SCG latency model adapting the scenario's
	// bottleneck pool on top of the same hardware autoscaler.
	chaosSora
)

// apply strips the scenario down to the strategy: static drops the
// scaler and the model, autoscaler drops the model.
func (s chaosStrategy) apply(sc *scenario.Scenario) {
	switch s {
	case chaosStatic:
		sc.Scaler, sc.Model = nil, nil
	case chaosAuto:
		sc.Model = nil
	}
}

func (s chaosStrategy) String() string {
	switch s {
	case chaosStatic:
		return "static"
	case chaosAuto:
		return "autoscaler"
	case chaosSora:
		return "Sora"
	default:
		return fmt.Sprintf("chaosStrategy(%d)", int(s))
	}
}

// chaosPhase labels one reporting interval around a fault window.
type chaosPhase string

const (
	phaseBefore chaosPhase = "before"
	phaseDuring chaosPhase = "during"
	phaseAfter  chaosPhase = "after"
)

// chaosWindowRow is one (fault window, phase) measurement.
type chaosWindowRow struct {
	fault, target string
	phase         chaosPhase
	from, to      sim.Time
	p99           time.Duration
	goodput       float64 // req/s within SLA
	goodFrac      float64 // fractions of completions in the interval
	degradedFrac  float64
	violatedFrac  float64
}

// chaosResult carries one run's windows and whole-run counters.
type chaosResult struct {
	app      string
	strategy chaosStrategy
	rows     []chaosWindowRow

	p99          time.Duration
	goodput      float64
	goodFrac     float64 // whole-run outcome fractions past warmup
	degradedFrac float64
	violatedFrac float64
	completed    uint64
	failed       uint64
	refused      uint64
	lost         uint64
	timedOut     uint64
	retries      uint64
	rejected     uint64
	degraded     uint64
}

// chaosApps lists the benchmark scenarios in run order.
var chaosApps = []string{"sockshop", "socialnet"}

// runChaosUnit executes one (app, strategy) run under the named plan
// and collects per-window outcome statistics.
func runChaosUnit(p Params, appName string, strat chaosStrategy, planName string, dur time.Duration) (*chaosResult, error) {
	// Self-identification record: the unit's timeline (and event log)
	// leads with the config that produced it, so soradiff can align two
	// runs without out-of-band context.
	if tel := p.Telemetry; tel != nil {
		tel.Publish(0, "run.manifest",
			telemetry.String("tool", "chaos"),
			telemetry.String("app", appName),
			telemetry.String("strategy", strat.String()),
			telemetry.String("plan", planName),
			telemetry.Int64("seed", int64(p.Seed)),
			telemetry.Float("dur_s", dur.Seconds()),
		)
	}
	var s scenario.Scenario
	switch appName {
	case "sockshop":
		// The Cart scenario of Figures 10-11: 2-core Cart with the
		// pre-profiled ~10-thread pool, closed-loop cart-only load.
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = 10
		s = scenario.SockShopCart(cfg, goodputRTT)
		s.Target = workload.ConstantUsers(900)
	case "socialnet":
		// The Figure-12 read path: Home Timeline fanning out to Post
		// Storage over a statically sized connection pool.
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = 15
		cfg.PostStorageCores = 2
		s = scenario.SocialNetworkReadPath(cfg)
		s.Target = workload.ConstantUsers(1500)
	default:
		return nil, fmt.Errorf("chaos: unknown app %q", appName)
	}
	s.Seed = p.Seed
	s.Duration = dur
	s.FaultPlan = planName
	strat.apply(&s)
	r, err := simulate(p.observe(s))
	if err != nil {
		return nil, err
	}

	return collectChaos(r, appName, strat, sim.Time(10*time.Second), sim.Time(dur)), nil
}

// collectChaos gathers one finished run's whole-run counters, its
// outcome statistics over [warm, end) and the before/during/after rows
// of every fault window. label names the run in the report (the app, or
// the control-plane profile).
func collectChaos(r *scenario.Rig, label string, strat chaosStrategy, warm, end sim.Time) *chaosResult {
	res := &chaosResult{
		app:       label,
		strategy:  strat,
		goodput:   r.E2E.GoodputRate(warm, end, goodputRTT),
		completed: r.C.Completed(),
		failed:    r.C.Failed(),
		refused:   r.C.Refused(),
		lost:      r.C.LostCalls(),
		timedOut:  r.C.TimedOut(),
		retries:   r.C.Retries(),
		rejected:  r.C.BreakerRejections(),
		degraded:  r.C.Degraded(),
	}
	if p99, err := r.E2E.Percentile(99, warm, end); err == nil {
		res.p99 = p99
	}
	if good, degraded, violated := r.E2E.CountsByOutcome(warm, end, goodputRTT); good+degraded+violated > 0 {
		total := float64(good + degraded + violated)
		res.goodFrac = float64(good) / total
		res.degradedFrac = float64(degraded) / total
		res.violatedFrac = float64(violated) / total
	}
	for _, win := range r.Faults.Windows() {
		res.rows = append(res.rows, chaosWindows(r, win, end)...)
	}
	return res
}

// chaosWindows slices one fault window into before/during/after rows.
// The flanking intervals are as long as the window itself, clamped to
// the measured run.
func chaosWindows(r *scenario.Rig, win fault.Window, end sim.Time) []chaosWindowRow {
	winEnd := win.End
	if winEnd == 0 || winEnd > end {
		winEnd = end // permanent fault: "during" runs to the end
	}
	length := winEnd - win.Start
	intervals := []struct {
		phase    chaosPhase
		from, to sim.Time
	}{
		{phaseBefore, max(0, win.Start-length), win.Start},
		{phaseDuring, win.Start, winEnd},
		{phaseAfter, winEnd, min(end, winEnd+length)},
	}
	var rows []chaosWindowRow
	for _, iv := range intervals {
		if iv.to <= iv.from {
			continue
		}
		row := chaosWindowRow{
			fault:   win.Fault.Kind.String(),
			target:  win.Target,
			phase:   iv.phase,
			from:    iv.from,
			to:      iv.to,
			goodput: r.E2E.GoodputRate(iv.from, iv.to, goodputRTT),
		}
		if p99, err := r.E2E.Percentile(99, iv.from, iv.to); err == nil {
			row.p99 = p99
		}
		good, degraded, violated := r.E2E.CountsByOutcome(iv.from, iv.to, goodputRTT)
		if total := good + degraded + violated; total > 0 {
			row.goodFrac = float64(good) / float64(total)
			row.degradedFrac = float64(degraded) / float64(total)
			row.violatedFrac = float64(violated) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// RunChaos executes the named fault plan over both applications and all
// three strategies (six independent deterministic runs) and prints the
// per-window comparison. It backs the registered "chaos" experiment
// (plan "combo") and sorabench's -chaos flag.
func RunChaos(p Params, w io.Writer, planName string) error {
	dur := p.scale(3 * time.Minute)
	strategies := []chaosStrategy{chaosStatic, chaosAuto, chaosSora}
	type unit struct {
		app   string
		strat chaosStrategy
	}
	var units []unit
	for _, app := range chaosApps {
		for _, s := range strategies {
			units = append(units, unit{app, s})
		}
	}

	grp := p.Telemetry.Group("runs")
	results, err := parMap(p, len(units), func(i int) (*chaosResult, error) {
		u := units[i]
		label := u.app + "_" + sanitize(u.strat.String())
		res, rerr := runChaosUnit(p.unitParams(grp.Unit(i, label)), u.app, u.strat, planName, dur)
		if rerr != nil {
			return nil, fmt.Errorf("chaos %s/%v: %w", u.app, u.strat, rerr)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "fault plan %q over %v, goodput SLA %v\n", planName, dur, goodputRTT)
	var csv [][]string
	for _, res := range results {
		fmt.Fprintf(w, "\n=== %s / %s — p99 %.0f ms, goodput %.0f req/s, completed %d, failed %d, degraded %d\n",
			res.app, res.strategy, res.p99.Seconds()*1000, res.goodput, res.completed, res.failed, res.degraded)
		csv = append(csv, writeChaosWindows(w, res, 12, 24)...)
	}
	fmt.Fprintf(w, "\n(during a fault window Sora should hold the highest good fraction: the\n")
	fmt.Fprintf(w, " resilience layer converts outages into degraded or fast-failed requests\n")
	fmt.Fprintf(w, " and SCG re-tunes the bottleneck pool once the fault clears)\n")

	return writeCSVStrings(p, "chaos_"+sanitize(planName),
		[]string{"app", "strategy", "fault", "target", "phase",
			"from_s", "to_s", "p99_ms", "goodput_rps", "good_frac", "degraded_frac", "violated_frac"}, csv)
}

// writeChaosWindows prints one result's whole-run counters and its
// window table, the fault and target columns padded to faultW and
// targetW, and returns the table's CSV rows.
func writeChaosWindows(w io.Writer, res *chaosResult, faultW, targetW int) [][]string {
	fmt.Fprintf(w, "    refused %d, lost %d, timed out %d, retries %d, breaker-rejected %d\n",
		res.refused, res.lost, res.timedOut, res.retries, res.rejected)
	fmt.Fprintf(w, "%-*s %-*s %-8s %10s %10s %8s %8s %8s %8s\n",
		faultW, "fault", targetW, "target", "phase", "t[s]", "p99[ms]", "gput", "good%", "degr%", "viol%")
	var csv [][]string
	for _, row := range res.rows {
		fmt.Fprintf(w, "%-*s %-*s %-8s %4.0f-%-5.0f %10.0f %8.0f %7.1f%% %7.1f%% %7.1f%%\n",
			faultW, row.fault, targetW, row.target, row.phase,
			row.from.Seconds(), row.to.Seconds(),
			row.p99.Seconds()*1000, row.goodput,
			row.goodFrac*100, row.degradedFrac*100, row.violatedFrac*100)
		csv = append(csv, []string{
			res.app, sanitize(res.strategy.String()), row.fault, sanitize(row.target), string(row.phase),
			fmt.Sprintf("%g", row.from.Seconds()),
			fmt.Sprintf("%g", row.to.Seconds()),
			fmt.Sprintf("%g", row.p99.Seconds()*1000),
			fmt.Sprintf("%g", row.goodput),
			fmt.Sprintf("%.4f", row.goodFrac),
			fmt.Sprintf("%.4f", row.degradedFrac),
			fmt.Sprintf("%.4f", row.violatedFrac),
		})
	}
	return csv
}
