// Package scenario declares one simulated run as a single value and
// builds it in one fixed wiring order. A Scenario names the app and
// request mix, the closed-loop load, the monitored soft resources, the
// control plane, the fault plan with its resilience layer, the hardware
// autoscaler and the Sora (SCG) or ConScale (SCT) model; Build deploys
// it and Rig.Run executes it. Every experiment unit and simrun go
// through here, so two tools that describe the same run simulate the
// same trajectory.
//
// The strategy rule: with a Model, the controller drives the Scaler;
// with only a Scaler, the scaler steps on its own DefaultControlPeriod
// ticker; with neither, the run is static. The monitor always runs,
// because a utilization read perturbs the run (DESIGN.md §6, §17).
package scenario

import (
	"fmt"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
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

// SLA is the end-to-end goodput threshold ("Goodput (RTT=400ms)") of
// Table 2 and Figures 10-12. The Social Network constructor's model
// targets it, and it classifies flight-recorder windows by default.
const SLA = 400 * time.Millisecond

// Scenario declares one run.
type Scenario struct {
	Seed uint64
	App  cluster.App
	// Mix, when non-nil, replaces App.Mix.
	Mix []cluster.WeightedRequest
	// Target is the closed-loop user population over virtual time.
	Target workload.TargetFunc
	// Duration is the measured window: Run stops the load and every
	// loop after it, then drains. Fault plans are laid out over it.
	Duration time.Duration

	// Refs are the soft resources the monitor samples; it samples every
	// service's CPU. SampleInterval overrides its 100 ms cadence.
	Refs           []cluster.ResourceRef
	SampleInterval time.Duration

	// ControlPlane, when non-nil, deploys the app on a simulated
	// multi-node fleet (see internal/node).
	ControlPlane *node.Config

	// FaultPlan names a deterministic fault plan (fault.Names); empty
	// injects nothing. With a plan, Policies are installed first and the
	// plan hits FaultTargets; its node-level faults are enabled exactly
	// when ControlPlane is set.
	FaultPlan    string
	FaultTargets fault.Targets
	Policies     []topology.EdgePolicy

	// Scaler is the hardware autoscaler; nil keeps hardware fixed.
	Scaler Scaler
	// Model, when non-nil, runs a controller that adapts the managed
	// soft resources and drives Scaler.
	Model *Model

	// Telemetry, when non-nil, receives the cluster's events, counters
	// and span samples. With FlightWindow > 0 it also receives the
	// flight recorder's windows, classified against FlightSLA (zero
	// selects SLA).
	Telemetry    *telemetry.Recorder
	FlightWindow time.Duration
	FlightSLA    time.Duration
	// Profile, when non-nil, receives every completed trace.
	Profile *profile.Aggregator
}

// Model configures the concurrency model and its controller.
type Model struct {
	// SCT selects ConScale's throughput model instead of Sora's SCG.
	SCT     bool
	Config  core.SCGConfig
	Managed []core.ManagedResource
	Warmup  time.Duration
}

// Scaler is a hardware autoscaler declaration: FIRM, HPA or VPA.
type Scaler interface {
	build(c *cluster.Cluster) (core.HardwareScaler, error)
}

// FIRM declares autoscaler.NewFIRM's vertical core ladder.
type FIRM autoscaler.FIRMConfig

// HPA declares autoscaler.NewHPA's horizontal replica scaler.
type HPA autoscaler.HPAConfig

// VPA declares autoscaler.NewVPA's vertical core scaler.
type VPA autoscaler.VPAConfig

func (f FIRM) build(c *cluster.Cluster) (core.HardwareScaler, error) {
	return autoscaler.NewFIRM(c, autoscaler.FIRMConfig(f))
}

func (h HPA) build(c *cluster.Cluster) (core.HardwareScaler, error) {
	return autoscaler.NewHPA(c, autoscaler.HPAConfig(h))
}

func (v VPA) build(c *cluster.Cluster) (core.HardwareScaler, error) {
	return autoscaler.NewVPA(c, autoscaler.VPAConfig(v))
}

// Component is a loop a caller attaches to a built rig, such as a
// timeline sampler or a joint controller. Run starts it after the rig's
// own loops and stops it at the end of the measured window.
type Component interface {
	Start()
	Stop()
}

// Rig is a built scenario, ready to Run once.
type Rig struct {
	K   *sim.Kernel
	C   *cluster.Cluster
	Mon *core.Monitor
	// Ctl is the model's controller; nil without a Model.
	Ctl *core.Controller
	// Faults is the fault engine; nil without a FaultPlan.
	Faults *fault.Engine
	// E2E records every end-to-end completion of the run. The cluster's
	// own completion log exists only where an online reader declared it
	// and keeps only that reader's reach; timelines and final reports
	// read this one.
	E2E *metrics.CompletionLog

	duration time.Duration
	loop     *workload.ClosedLoop
	scaler   core.HardwareScaler // stepped on its own ticker when Ctl is nil
	flight   *cluster.FlightRecorder
	attached []Component
}

// Build deploys the scenario. Nothing runs until Rig.Run.
func (s Scenario) Build() (*Rig, error) {
	if s.Target == nil {
		return nil, fmt.Errorf("scenario: no workload target")
	}
	k := sim.NewKernel(s.Seed)
	c, err := cluster.New(k, s.App, cluster.Options{Telemetry: s.Telemetry, ControlPlane: s.ControlPlane})
	if err != nil {
		return nil, err
	}
	if s.Mix != nil {
		if err := c.SetMix(s.Mix); err != nil {
			return nil, err
		}
	}
	mon, err := core.NewMonitor(c, s.SampleInterval, s.Refs, c.ServiceNames())
	if err != nil {
		return nil, err
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: s.Target,
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return nil, err
	}
	r := &Rig{K: k, C: c, Mon: mon, E2E: &metrics.CompletionLog{}, duration: s.Duration, loop: loop}
	if s.Telemetry != nil && s.FlightWindow > 0 {
		sla := s.FlightSLA
		if sla == 0 {
			sla = SLA
		}
		if r.flight, err = c.ArmFlightRecorder(s.FlightWindow, sla); err != nil {
			return nil, err
		}
	}
	c.OnComplete(func(tr *trace.Trace) {
		// Degraded completions must not count as goodput in the final
		// report, exactly as in the cluster's own pruned logs.
		r.E2E.AddFlagged(k.Now(), tr.ResponseTime(), tr.Degraded())
	})
	if s.Profile != nil {
		c.OnComplete(s.Profile.Add)
	}
	if s.Scaler != nil {
		if r.scaler, err = s.Scaler.build(c); err != nil {
			return nil, err
		}
	}
	if m := s.Model; m != nil {
		var model core.Model
		if m.SCT {
			model, err = core.NewSCT(c, mon, m.Config)
		} else {
			model, err = core.NewSCG(c, mon, m.Config)
		}
		if err != nil {
			return nil, err
		}
		if r.Ctl, err = core.NewController(c, core.ControllerConfig{
			Model:   model,
			Scaler:  r.scaler,
			Managed: m.Managed,
			Warmup:  m.Warmup,
		}); err != nil {
			return nil, err
		}
	}
	if s.FaultPlan != "" {
		if err := topology.ApplyResilience(c, s.Policies); err != nil {
			return nil, err
		}
		targets := s.FaultTargets
		targets.NodeFaults = s.ControlPlane != nil
		plan, err := fault.NamedPlan(s.FaultPlan, targets, s.Duration)
		if err != nil {
			return nil, err
		}
		if r.Faults, err = fault.New(c, plan); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Attach registers a component that Run starts and stops with the
// rig's own loops. Call before Run.
func (r *Rig) Attach(c Component) { r.attached = append(r.attached, c) }

// Run executes the measured window and drains in-flight work. Loops
// start in a fixed order, since events at the same instant fire in the
// order they were scheduled; every loop stops before the drain so it
// terminates.
func (r *Rig) Run() {
	var hw *sim.Ticker
	if r.scaler != nil && r.Ctl == nil {
		hw = r.K.Every(core.DefaultControlPeriod, func() { r.scaler.Step(r.K.Now()) })
	}
	if r.Faults != nil {
		r.Faults.Start()
	}
	r.Mon.Start()
	r.loop.Start()
	if r.Ctl != nil {
		r.Ctl.Start()
	}
	for _, c := range r.attached {
		c.Start()
	}
	r.K.RunUntil(r.K.Now() + sim.Time(r.duration))
	for _, c := range r.attached {
		c.Stop()
	}
	// Stop also flushes the flight recorder's final partial window.
	r.flight.Stop()
	if r.Ctl != nil {
		r.Ctl.Stop()
	}
	if hw != nil {
		hw.Stop()
	}
	r.loop.Stop()
	r.Mon.Stop()
	r.K.Run()
	r.C.FlushTelemetry()
}
