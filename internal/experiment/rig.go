package experiment

import (
	"fmt"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/dist"
	"sora/internal/metrics"
	"sora/internal/node"
	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/trace"
	"sora/internal/workload"
)

// rig bundles a deployed cluster, a closed-loop workload and (optionally)
// monitoring plus a Sora/ConScale controller — the shared scaffolding of
// every experiment.
type rig struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	mon  *core.Monitor
	loop *workload.ClosedLoop
	ctl  *core.Controller

	// e2e records every end-to-end completion for the whole run. The
	// cluster's own completion log is pruned to its retention window
	// (it feeds the online models); final-report statistics must come
	// from this unpruned log.
	e2e *metrics.CompletionLog

	timeline *timeline
	flight   *cluster.FlightRecorder
	tickers  []*sim.Ticker
	stoppers []func()
}

// every schedules a recurring callback that is automatically stopped when
// the run ends, so the post-run drain terminates.
func (r *rig) every(period time.Duration, fn func()) {
	r.tickers = append(r.tickers, r.k.Every(period, fn))
}

// onStop registers a callback run at the end of the measured window,
// before the drain — controllers with their own tickers must be stopped
// here or the drain never terminates.
func (r *rig) onStop(fn func()) {
	if fn != nil {
		r.stoppers = append(r.stoppers, fn)
	}
}

// rigConfig declares one scenario.
type rigConfig struct {
	seed uint64
	app  cluster.App
	mix  []cluster.WeightedRequest // optional mix override

	target workload.TargetFunc
	think  dist.Distribution // nil selects the RUBBoS-like default

	// refs are monitored soft resources; utilServices get CPU gauges
	// (nil monitors every service).
	refs         []cluster.ResourceRef
	utilServices []string

	// sampleInterval overrides the monitor cadence (0 = 100 ms).
	sampleInterval time.Duration

	// tel, when non-nil, receives this rig's cluster telemetry (events,
	// counters, span samples). Fan-out call sites pass a per-unit
	// sub-recorder so parallel rigs never share a node.
	tel *telemetry.Recorder

	// ctrl, when non-nil, deploys the cluster on a simulated multi-node
	// control plane: pods are bin-packed onto nodes, cold-start before
	// serving, and endpoint changes reach the balancers after a lag
	// (see internal/node). Nil places pods instantly and applies
	// endpoint changes synchronously.
	ctrl *node.Config

	// prof, when non-nil, receives every completed trace for latency
	// attribution. One order-independent aggregator is shared across all
	// rigs of an experiment (see Params.Profile).
	prof *profile.Aggregator

	// flightWindow, when > 0 and tel is set, arms the cluster's flight
	// recorder at this window (see Params.Timeline). The goodput SLA is
	// the classification threshold for the good/degraded/violated split.
	flightWindow time.Duration
}

func newRig(cfg rigConfig) (*rig, error) {
	k := sim.NewKernel(cfg.seed)
	c, err := cluster.New(k, cfg.app, cluster.Options{Telemetry: cfg.tel, ControlPlane: cfg.ctrl})
	if err != nil {
		return nil, err
	}
	if cfg.mix != nil {
		if err := c.SetMix(cfg.mix); err != nil {
			return nil, err
		}
	}
	utilServices := cfg.utilServices
	if utilServices == nil {
		utilServices = c.ServiceNames()
	}
	mon, err := core.NewMonitor(c, cfg.sampleInterval, cfg.refs, utilServices)
	if err != nil {
		return nil, err
	}
	if cfg.target == nil {
		return nil, fmt.Errorf("experiment: rig needs a workload target")
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: cfg.target,
		Think:  cfg.think,
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return nil, err
	}
	r := &rig{k: k, c: c, mon: mon, loop: loop, e2e: &metrics.CompletionLog{}}
	if cfg.tel != nil && cfg.flightWindow > 0 {
		f, err := c.ArmFlightRecorder(cfg.flightWindow, goodputRTT)
		if err != nil {
			return nil, err
		}
		r.flight = f
	}
	c.OnComplete(func(tr *trace.Trace) {
		// Degraded completions must not count as goodput in the final
		// report, exactly as in the cluster's own pruned logs.
		r.e2e.AddFlagged(k.Now(), tr.ResponseTime(), tr.Root.Degraded)
	})
	if cfg.prof != nil {
		c.OnComplete(cfg.prof.Add)
	}
	return r, nil
}

// attachController wires a Sora (SCG) or ConScale (SCT) controller over
// the given hardware scaler. Call before run.
func (r *rig) attachController(cfg core.ControllerConfig) error {
	ctl, err := core.NewController(r.c, cfg)
	if err != nil {
		return err
	}
	r.ctl = ctl
	return nil
}

// run executes the scenario for the given duration and drains in-flight
// work. Timeline sampling (if armed) stops at the nominal end.
func (r *rig) run(d time.Duration) {
	r.mon.Start()
	r.loop.Start()
	if r.ctl != nil {
		r.ctl.Start()
	}
	if r.timeline != nil {
		r.timeline.start(r.k)
	}
	r.k.RunUntil(r.k.Now() + sim.Time(d))
	if r.timeline != nil {
		r.timeline.stop()
	}
	// The flight recorder's ticker must stop before the drain (it would
	// re-arm forever); Stop also flushes the final partial window.
	r.flight.Stop()
	if r.ctl != nil {
		r.ctl.Stop()
	}
	for _, fn := range r.stoppers {
		fn()
	}
	for _, t := range r.tickers {
		t.Stop()
	}
	r.loop.Stop()
	r.mon.Stop()
	r.k.Run() // drain
	r.c.FlushTelemetry()
	noteKernelRun(r.k)
}

// timeline samples named gauges once per tick into rows for CSV/ASCII
// output.
type timeline struct {
	interval time.Duration
	names    []string
	fns      []func() float64
	rows     [][]float64
	ticker   *sim.Ticker
}

// newTimeline creates a recorder at the given cadence.
func newTimeline(interval time.Duration) *timeline {
	if interval <= 0 {
		interval = time.Second
	}
	return &timeline{interval: interval}
}

// column registers one sampled column.
func (tl *timeline) column(name string, fn func() float64) {
	tl.names = append(tl.names, name)
	tl.fns = append(tl.fns, fn)
}

func (tl *timeline) start(k *sim.Kernel) {
	tl.ticker = k.Every(tl.interval, func() {
		row := make([]float64, 0, len(tl.fns)+1)
		row = append(row, k.Now().Seconds())
		for _, fn := range tl.fns {
			row = append(row, fn())
		}
		tl.rows = append(tl.rows, row)
	})
}

func (tl *timeline) stop() {
	if tl.ticker != nil {
		tl.ticker.Stop()
	}
}

// header returns the CSV header (time first).
func (tl *timeline) header() []string {
	return append([]string{"t_s"}, tl.names...)
}

// series extracts one column by name.
func (tl *timeline) series(name string) []float64 {
	idx := -1
	for i, n := range tl.names {
		if n == name {
			idx = i + 1
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(tl.rows))
	for i, row := range tl.rows {
		out[i] = row[idx]
	}
	return out
}

// windowStat is a tiny helper computing a statistic over the trailing
// timeline tick for completion logs: construct with the log and call per
// tick.
type windowStat struct {
	k    *sim.Kernel
	last sim.Time
}

func newWindowStat(k *sim.Kernel) *windowStat { return &windowStat{k: k} }

// window returns [last, now) and advances last.
func (ws *windowStat) window() (since, until sim.Time) {
	since, until = ws.last, ws.k.Now()
	ws.last = until
	return since, until
}
