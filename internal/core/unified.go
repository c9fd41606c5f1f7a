package core

import (
	"fmt"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/telemetry"
)

// UnifiedController implements the joint optimization the paper leaves as
// future work ("A unified controller can potentially be an ideal solution
// for this joint optimization problem", section 4.1): instead of an
// independent hardware autoscaler whose changes the Concurrency Adapter
// chases one control period later, a single decision loop moves hardware
// and soft resources together.
//
// The coordination rules:
//
//   - When deadlines are missed and the capacity behind the pool is
//     hardware-bound, it scales the CPU ladder up AND immediately
//     rescales the pool proportionally to the new capacity — the
//     post-scale optimum the SCG model would otherwise need a window of
//     fresh samples to discover.
//   - When the system is healthy and cold, it steps the ladder down and
//     shrinks the pool in the same action, avoiding the window where
//     de-provisioned hardware runs with an oversized pool.
//   - Otherwise it applies the same soft-resource policy as the
//     independent Controller.
type UnifiedController struct {
	c   *cluster.Cluster
	cfg UnifiedConfig

	ticker  *sim.Ticker
	running bool
	started sim.Time
	level   int
	calm    int

	events       []AdaptationEvent
	hwChanges    int
	errs         int
	lastErr      error
	shrinkStreak int
}

// UnifiedConfig configures the unified controller. It decides every
// DefaultControlPeriod and steps the ladder down after unifiedDownAfter
// calm periods at or below unifiedDownUtil.
type UnifiedConfig struct {
	// Model drives estimation (SCG in practice). Required.
	Model Model
	// Managed lists the adaptable soft resources (required, the first
	// entry is the primary knob used during coordinated scaling).
	Managed []ManagedResource
	// Service is the hardware-scaled microservice (required).
	Service string
	// Ladder is the ordered CPU-limit ladder; empty selects {2, 4}.
	Ladder []float64
	// SLO is the end-to-end objective that defines violation (required).
	SLO time.Duration
	// Warmup as in ControllerConfig.
	Warmup time.Duration
}

// unifiedDownUtil and unifiedDownAfter gate the unified controller's
// hardware scale-down: that many consecutive calm periods at or below
// that utilization.
const (
	unifiedDownUtil  = 0.35
	unifiedDownAfter = 4
)

// NewUnified wires a unified controller to the cluster.
func NewUnified(c *cluster.Cluster, cfg UnifiedConfig) (*UnifiedController, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: unified controller needs a model")
	}
	if len(cfg.Managed) == 0 {
		return nil, fmt.Errorf("core: unified controller needs managed resources")
	}
	svc, err := c.Service(cfg.Service)
	if err != nil {
		return nil, err
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("core: unified controller needs a positive SLO")
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = []float64{2, 4}
	}
	for i := 1; i < len(cfg.Ladder); i++ {
		if cfg.Ladder[i] <= cfg.Ladder[i-1] {
			return nil, fmt.Errorf("core: ladder must be strictly increasing, got %v", cfg.Ladder)
		}
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 60 * time.Second
	}
	u := &UnifiedController{c: c, cfg: cfg}
	cores := svc.Cores()
	for i, v := range cfg.Ladder {
		if v <= cores {
			u.level = i
		}
	}
	return u, nil
}

// Start begins the joint control loop. Idempotent.
func (u *UnifiedController) Start() {
	if u.running {
		return
	}
	u.running = true
	u.started = u.c.Kernel().Now()
	u.ticker = u.c.Kernel().Every(DefaultControlPeriod, u.step)
}

// Stop halts the loop.
func (u *UnifiedController) Stop() {
	if !u.running {
		return
	}
	u.running = false
	u.ticker.Stop()
}

// Events returns the soft-resource adaptations applied so far.
func (u *UnifiedController) Events() []AdaptationEvent {
	out := make([]AdaptationEvent, len(u.events))
	copy(out, u.events)
	return out
}

// HardwareChanges returns the number of CPU-ladder moves.
func (u *UnifiedController) HardwareChanges() int { return u.hwChanges }

func (u *UnifiedController) step() {
	now := u.c.Kernel().Now()
	if now-u.started < sim.Time(u.cfg.Warmup) {
		return
	}
	rec, err := u.cfg.Model.Recommend(now, u.cfg.Managed)
	if err != nil {
		u.errs++
		u.lastErr = err
		publishControllerError(u.c, now, "recommend", err)
		return
	}
	svc, err := u.c.Service(u.cfg.Service)
	if err != nil {
		u.errs++
		u.lastErr = err
		return
	}
	p99, perr := u.c.Completions().Percentile(99, now-sim.Time(DefaultControlPeriod), now)
	violating := perr == nil && p99 > u.cfg.SLO

	util := rec.BehindUtil
	switch {
	case violating && util >= behindUtilHigh && u.level < len(u.cfg.Ladder)-1:
		// Coordinated scale-up: more CPU plus a proportionally larger
		// pool in one action.
		oldCores := u.cfg.Ladder[u.level]
		u.level++
		newCores := u.cfg.Ladder[u.level]
		if err := u.c.SetCores(u.cfg.Service, newCores); err != nil {
			u.level--
			u.errs++
			u.lastErr = err
			return
		}
		u.hwChanges++
		u.calm = 0
		u.publishHardwareMove(now, "up", oldCores, newCores, violating, util, p99)
		u.scalePoolBy(now, rec, newCores/oldCores)
		return
	case !violating && util <= unifiedDownUtil && u.level > 0:
		u.calm++
		if u.calm >= unifiedDownAfter {
			u.calm = 0
			oldCores := u.cfg.Ladder[u.level]
			u.level--
			newCores := u.cfg.Ladder[u.level]
			if err := u.c.SetCores(u.cfg.Service, newCores); err != nil {
				u.level++
				u.errs++
				u.lastErr = err
				return
			}
			u.hwChanges++
			u.publishHardwareMove(now, "down", oldCores, newCores, violating, util, p99)
			u.scalePoolBy(now, rec, newCores/oldCores)
			return
		}
	default:
		u.calm = 0
	}
	// No hardware move this period: plain soft adaptation.
	u.softAdapt(now, rec, false)
	_ = svc
}

// publishHardwareMove records one CPU-ladder move with the decision
// inputs that triggered it.
func (u *UnifiedController) publishHardwareMove(now sim.Time, direction string, fromCores, toCores float64, violating bool, util float64, p99 time.Duration) {
	tel := u.c.Telemetry()
	if tel == nil {
		return
	}
	tel.Publish(now, "controller.hardware",
		telemetry.String("service", u.cfg.Service),
		telemetry.String("direction", direction),
		telemetry.Float("from_cores", fromCores),
		telemetry.Float("to_cores", toCores),
		telemetry.Bool("violating", violating),
		telemetry.Float("behind_util", util),
		telemetry.Dur("p99_ms", p99),
		telemetry.Dur("slo_ms", u.cfg.SLO))
}

// scalePoolBy rescales the primary managed pool proportionally to the
// capacity change, anchored on the larger of the model's recommendation
// and the current setting.
func (u *UnifiedController) scalePoolBy(now sim.Time, rec Recommendation, ratio float64) {
	res := u.cfg.Managed[0]
	perPod, err := u.c.PoolSize(res.Ref)
	if err != nil {
		u.errs++
		u.lastErr = err
		return
	}
	base := perPod
	if rec.Resource == res.Ref && rec.OptimalConcurrency > base {
		base = rec.OptimalConcurrency
	}
	target := res.Clamp(int(float64(base)*ratio + 0.5))
	if target == perPod {
		return
	}
	if err := u.c.SetPoolSize(res.Ref, target); err != nil {
		u.errs++
		u.lastErr = err
		publishControllerError(u.c, now, "apply", err)
		return
	}
	if tel := u.c.Telemetry(); tel != nil {
		tel.Publish(now, "controller.decision",
			telemetry.String("resource", res.Ref.String()),
			telemetry.String("critical", rec.CriticalService),
			telemetry.String("reason", reasonCoordinated),
			telemetry.Bool("applied", true),
			telemetry.Int("current", perPod),
			telemetry.Int("target", target),
			telemetry.Int("to", target),
			telemetry.Int("delta", target-perPod),
			telemetry.Float("ratio", ratio),
			telemetry.Int("opt", rec.OptimalConcurrency),
			telemetry.Int("pairs", rec.Pairs))
	}
	u.events = append(u.events, AdaptationEvent{
		At:              now,
		Resource:        res.Ref,
		From:            perPod,
		To:              target,
		CriticalService: rec.CriticalService,
		Threshold:       rec.Threshold,
		Pairs:           rec.Pairs,
	})
}

// softAdapt runs the shared Concurrency Adapter policy (runAdapter in
// adapter.go) without a hysteresis band — the unified controller reacts
// to every surviving recommendation since it coordinates hardware moves
// itself.
func (u *UnifiedController) softAdapt(now sim.Time, rec Recommendation, afterHWChange bool) {
	ev, applied, err := runAdapter(u.c, now, rec, u.cfg.Managed, &u.shrinkStreak, afterHWChange, 0)
	if err != nil {
		u.errs++
		u.lastErr = err
		publishControllerError(u.c, now, "apply", err)
		return
	}
	if applied {
		u.events = append(u.events, ev)
	}
}
