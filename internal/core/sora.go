package core

import (
	"fmt"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
)

// HardwareScaler is the hardware-only autoscaler the Reallocation Module
// wraps (FIRM, Kubernetes HPA/VPA, or nothing). Implementations adjust
// CPU limits or replica counts through the cluster's reconfiguration API.
type HardwareScaler interface {
	// Name identifies the scaler in logs and experiment output.
	Name() string
	// Step runs one control decision at the current virtual time and
	// reports whether the hardware allocation changed.
	Step(now sim.Time) bool
}

// AdaptationEvent records one soft-resource reallocation performed by the
// Concurrency Adapter.
type AdaptationEvent struct {
	At              sim.Time
	Resource        cluster.ResourceRef
	From, To        int
	CriticalService string
	Threshold       time.Duration
	Pairs           int
}

// String formats the event for experiment logs.
func (e AdaptationEvent) String() string {
	return fmt.Sprintf("t=%v %v: %d -> %d (critical=%s, rtt=%s, pairs=%d)",
		e.At, e.Resource, e.From, e.To, e.CriticalService, fmtThreshold(e.Threshold), e.Pairs)
}

// ControllerConfig configures the Sora controller. It decides every
// DefaultControlPeriod and ignores recommendations within
// controllerHysteresis of the current setting.
type ControllerConfig struct {
	// Model is the concurrency model driving adaptation (SCG for Sora,
	// SCT for the ConScale baseline). Required.
	Model Model
	// Scaler is the wrapped hardware-only autoscaler; nil runs
	// soft-resource adaptation alone.
	Scaler HardwareScaler
	// Managed lists the adaptable soft resources. Required (non-empty).
	Managed []ManagedResource
	// Warmup suppresses adaptations until enough metric history exists;
	// zero selects one model window (60 s).
	Warmup time.Duration
}

// DefaultControlPeriod matches the Kubernetes HPA control loop the paper
// configures its autoscalers with.
const DefaultControlPeriod = 15 * time.Second

// controllerHysteresis suppresses reallocations smaller than this
// fraction of the current setting to avoid thrashing on estimation
// noise: a recommendation within ±15% of the current value is ignored.
const controllerHysteresis = 0.15

// Controller is the Sora framework's Reallocation Module: each control
// period it steps the hardware autoscaler, queries the concurrency model
// and applies the recommended soft-resource setting through the
// Concurrency Adapter. Immediately after a hardware change it re-queries
// eagerly, because scaling invalidates the previous optimum (the paper's
// core observation).
type Controller struct {
	c   *cluster.Cluster
	cfg ControllerConfig

	ticker  *sim.Ticker
	running bool
	started sim.Time

	events       []AdaptationEvent
	hwChanges    int
	errs         int
	lastErr      error
	shrinkStreak int
}

// shrinkConfirm is how many consecutive control periods must recommend a
// shrink before one is applied. Growth is applied immediately (latency
// is at stake); shrinking only saves resources, so it can afford
// debouncing against estimation noise — without it, the adapter
// oscillates between a noisy plateau-end and the exploration rule.
const shrinkConfirm = 2

// NewController wires a controller to the cluster. Call Start to begin
// the control loop.
func NewController(c *cluster.Cluster, cfg ControllerConfig) (*Controller, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: controller needs a model")
	}
	if len(cfg.Managed) == 0 {
		return nil, fmt.Errorf("core: controller needs at least one managed resource")
	}
	for _, res := range cfg.Managed {
		if _, err := c.PoolSize(res.Ref); err != nil {
			return nil, fmt.Errorf("core: managed resource %v: %w", res.Ref, err)
		}
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 60 * time.Second
	}
	return &Controller{c: c, cfg: cfg}, nil
}

// Start begins the control loop. Idempotent.
func (ctl *Controller) Start() {
	if ctl.running {
		return
	}
	ctl.running = true
	ctl.started = ctl.c.Kernel().Now()
	ctl.ticker = ctl.c.Kernel().Every(DefaultControlPeriod, ctl.step)
}

// Stop halts the control loop.
func (ctl *Controller) Stop() {
	if !ctl.running {
		return
	}
	ctl.running = false
	ctl.ticker.Stop()
}

// Events returns the soft-resource adaptations applied so far.
func (ctl *Controller) Events() []AdaptationEvent {
	out := make([]AdaptationEvent, len(ctl.events))
	copy(out, ctl.events)
	return out
}

// HardwareChanges returns how many control periods changed hardware.
func (ctl *Controller) HardwareChanges() int { return ctl.hwChanges }

// ModelErrors returns the count of control periods in which the model
// could not produce a recommendation (cold start, quiet window), along
// with the most recent error.
func (ctl *Controller) ModelErrors() (int, error) { return ctl.errs, ctl.lastErr }

func (ctl *Controller) step() {
	now := ctl.c.Kernel().Now()
	hwChanged := false
	if ctl.cfg.Scaler != nil {
		hwChanged = ctl.cfg.Scaler.Step(now)
		if hwChanged {
			ctl.hwChanges++
		}
	}
	if now-ctl.started < sim.Time(ctl.cfg.Warmup) {
		return
	}
	ctl.adapt(now, hwChanged)
}

// exploreFactor is the step by which the adapter grows a pool whose
// concurrency-goodput curve was truncated by the current allocation
// (section 3.2: "we gradually increase the allocation to find a new
// optimal value").
const exploreFactor = 1.5

// shrinkFloorFraction guards against collapsing a pool during a quiet
// window: the adapter never shrinks below this fraction of the peak
// concurrency demonstrated over the monitor's retained history.
const shrinkFloorFraction = 0.75

// behindUtilHigh is the utilization of the capacity behind a pool above
// which additional concurrency cannot produce useful work.
const behindUtilHigh = 0.92

// probeDownFactor is the multiplicative step for downward exploration
// when the capacity behind a saturated pool is itself the bottleneck
// (extra concurrency only adds multithreading thrash there).
const probeDownFactor = 0.75

// adapt queries the model and applies its recommendation through the
// Concurrency Adapter policy (runAdapter in adapter.go, shared with the
// unified controller). All reasoning happens in *total* concurrency
// units (the model observes totals across pods); the applied setting is
// divided by the owning service's replica count, since pool knobs are
// per pod (Tomcat/JDBC/ClientPool style).
//
//   - If the knee sits at (or beyond) the edge of the observable range —
//     a fallback result or a recommendation close to the current limit —
//     the curve is truncated and the true optimum is invisible. Under
//     pressure (pool pinned or deadlines missed) the adapter explores:
//     upward when the capacity behind the pool still has headroom,
//     downward when that capacity is saturated (more concurrency only
//     thrashes the bottleneck; hardware relief is the autoscaler's job).
//   - Shrinks are floored at shrinkFloorFraction of the peak concurrency
//     seen over the retained history, so a temporarily light window
//     cannot starve the next burst, and are debounced over consecutive
//     periods.
//   - Interior knees (confirmed by samples beyond them) are applied
//     directly.
func (ctl *Controller) adapt(now sim.Time, afterHWChange bool) {
	rec, err := ctl.cfg.Model.Recommend(now, ctl.cfg.Managed)
	if err != nil {
		ctl.errs++
		ctl.lastErr = err
		publishControllerError(ctl.c, now, "recommend", err)
		return
	}
	ev, applied, err := runAdapter(ctl.c, now, rec, ctl.cfg.Managed, &ctl.shrinkStreak, afterHWChange, controllerHysteresis)
	if err != nil {
		ctl.errs++
		ctl.lastErr = err
		publishControllerError(ctl.c, now, "apply", err)
		return
	}
	if applied {
		ctl.events = append(ctl.events, ev)
	}
}
