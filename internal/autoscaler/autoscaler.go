// Package autoscaler implements the hardware-only scaling baselines the
// paper compares against and composes Sora with:
//
//   - FIRMScaler — a vertical CPU scaler standing in for FIRM (Qiu et
//     al., OSDI 2020). FIRM's published system localizes critical
//     microservices and reprovisions their hardware with an RL policy;
//     what matters for the paper's comparison is its *observable*
//     behaviour — CPU limits follow SLO pressure, soft resources never
//     change — which this scaler reproduces with an SLO-violation +
//     utilization rule over the same telemetry.
//   - HPAScaler — the Kubernetes Horizontal Pod Autoscaler rule
//     (desired = ceil(current * utilization / target)) with a
//     scale-down stabilization window.
//   - VPAScaler — a threshold-based vertical scaler in the spirit of
//     the Kubernetes VPA used as ConScale's and Sora's substrate in
//     section 5.2's second comparison.
//
// Every scaler implements the core.HardwareScaler interface implicitly:
// Name() and Step(now) bool.
package autoscaler

import (
	"fmt"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/telemetry"
)

// publishScale records one applied hardware-scaling action on the
// cluster's telemetry bus (nil-check only when telemetry is disabled).
func publishScale(c *cluster.Cluster, now sim.Time, scaler, service, knob string, from, to, util float64) {
	tel := c.Telemetry()
	if tel == nil {
		return
	}
	tel.Publish(now, "autoscaler.scale",
		telemetry.String("scaler", scaler),
		telemetry.String("service", service),
		telemetry.String("knob", knob),
		telemetry.Float("from", from),
		telemetry.Float("to", to),
		telemetry.Float("util", util))
}

// utilTracker derives per-window mean CPU utilization of one service
// from the cluster's cumulative work counters.
type utilTracker struct {
	c        *cluster.Cluster
	service  string
	lastWork float64
	lastCap  float64
	primed   bool
}

func (u *utilTracker) utilization() (float64, error) {
	svc, err := u.c.Service(u.service)
	if err != nil {
		return 0, err
	}
	work := svc.CumulativeBusy()
	capacity := svc.CumulativeCapacity()
	dw, dc := work-u.lastWork, capacity-u.lastCap
	u.lastWork, u.lastCap = work, capacity
	if !u.primed {
		u.primed = true
		return 0, nil
	}
	if dc <= 0 {
		return 0, nil
	}
	return dw / dc, nil
}

// FIRMConfig configures the FIRM-style vertical scaler.
type FIRMConfig struct {
	// Service is the microservice whose CPU limit is managed (required).
	Service string
	// SLO is the end-to-end tail-latency objective; a p99 above it marks
	// an SLO violation (required).
	SLO time.Duration
	// Ladder is the ordered set of CPU limits the scaler moves through;
	// empty selects {2, 4} (the paper's Cart scenario scales 2 <-> 4).
	Ladder []float64
}

const (
	// firmUpUtil is the utilization at or above which a violation
	// triggers scale-up.
	firmUpUtil = 0.7
	// firmDownUtil is the utilization at or below which sustained calm
	// triggers scale-down.
	firmDownUtil = 0.35
	// firmDownAfter is how many consecutive calm periods precede
	// scale-down.
	firmDownAfter = 4
	// firmWindow is the telemetry window of the p99.
	firmWindow = 15 * time.Second
)

// FIRMScaler scales one service's per-pod CPU limit up the ladder when
// the end-to-end p99 violates the SLO while the service runs hot, and
// back down after sustained low utilization. It never touches soft
// resources — the gap Sora fills.
type FIRMScaler struct {
	cfg   FIRMConfig
	c     *cluster.Cluster
	util  utilTracker
	calm  int
	level int // index into Ladder of the current limit
}

// NewFIRM returns a FIRM-style scaler for the given service.
func NewFIRM(c *cluster.Cluster, cfg FIRMConfig) (*FIRMScaler, error) {
	if c == nil {
		return nil, fmt.Errorf("autoscaler: nil cluster")
	}
	svc, err := c.Service(cfg.Service)
	if err != nil {
		return nil, err
	}
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("autoscaler: FIRM needs a positive SLO")
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = []float64{2, 4}
	}
	for i := 1; i < len(cfg.Ladder); i++ {
		if cfg.Ladder[i] <= cfg.Ladder[i-1] {
			return nil, fmt.Errorf("autoscaler: FIRM ladder must be strictly increasing, got %v", cfg.Ladder)
		}
	}
	s := &FIRMScaler{cfg: cfg, c: c, util: utilTracker{c: c, service: cfg.Service}}
	// Locate the current core limit on the ladder (closest entry).
	cores := svc.Cores()
	s.level = 0
	for i, v := range cfg.Ladder {
		if v <= cores {
			s.level = i
		}
	}
	return s, nil
}

// Name implements core.HardwareScaler.
func (s *FIRMScaler) Name() string { return "firm" }

// Step implements core.HardwareScaler.
func (s *FIRMScaler) Step(now sim.Time) bool {
	util, err := s.util.utilization()
	if err != nil {
		return false
	}
	p99, err := s.c.Completions().Percentile(99, now-sim.Time(firmWindow), now)
	if err != nil {
		return false // quiet window
	}
	violating := p99 > s.cfg.SLO
	switch {
	case violating && util >= firmUpUtil && s.level < len(s.cfg.Ladder)-1:
		s.level++
		s.calm = 0
		if err := s.c.SetCores(s.cfg.Service, s.cfg.Ladder[s.level]); err != nil {
			s.level--
			return false
		}
		publishScale(s.c, now, s.Name(), s.cfg.Service, "cores", s.cfg.Ladder[s.level-1], s.cfg.Ladder[s.level], util)
		return true
	case !violating && util <= firmDownUtil && s.level > 0:
		s.calm++
		if s.calm >= firmDownAfter {
			s.calm = 0
			s.level--
			if err := s.c.SetCores(s.cfg.Service, s.cfg.Ladder[s.level]); err != nil {
				s.level++
				return false
			}
			publishScale(s.c, now, s.Name(), s.cfg.Service, "cores", s.cfg.Ladder[s.level+1], s.cfg.Ladder[s.level], util)
			return true
		}
	default:
		s.calm = 0
	}
	return false
}

// HPAConfig configures the Kubernetes-HPA-style horizontal scaler.
type HPAConfig struct {
	// Service is the scaled service (required).
	Service string
	// MaxReplicas bounds the pod count from above; zero selects 8. The
	// floor is hpaMinReplicas.
	MaxReplicas int
}

const (
	// hpaTargetUtil is the per-pod CPU utilization target: the "CPU
	// utilization > 80%" rule the paper cites.
	hpaTargetUtil = 0.8
	// hpaMinReplicas is the fewest pods the HPA scales down to.
	hpaMinReplicas = 1
	// hpaScaleDownStabilization is how long utilization must stay below
	// target before pods are removed.
	hpaScaleDownStabilization = 60 * time.Second
	// hpaTolerance suppresses rescaling when |util/target - 1| is within
	// it (the Kubernetes default). 1±hpaTolerance folds to the same
	// float64 as the run-time sum: the nearest double to 0.9 and to 1.1.
	hpaTolerance = 0.1
)

// HPAScaler reproduces the Kubernetes HPA control law.
type HPAScaler struct {
	cfg      HPAConfig
	c        *cluster.Cluster
	util     utilTracker
	lowSince sim.Time
	hasLow   bool
}

// NewHPA returns a Kubernetes-HPA-style scaler.
func NewHPA(c *cluster.Cluster, cfg HPAConfig) (*HPAScaler, error) {
	if c == nil {
		return nil, fmt.Errorf("autoscaler: nil cluster")
	}
	if _, err := c.Service(cfg.Service); err != nil {
		return nil, err
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 8
	}
	return &HPAScaler{cfg: cfg, c: c, util: utilTracker{c: c, service: cfg.Service}}, nil
}

// Name implements core.HardwareScaler.
func (s *HPAScaler) Name() string { return "hpa" }

// Step implements core.HardwareScaler.
func (s *HPAScaler) Step(now sim.Time) bool {
	util, err := s.util.utilization()
	if err != nil {
		return false
	}
	svc, err := s.c.Service(s.cfg.Service)
	if err != nil {
		return false
	}
	current := svc.Replicas()
	ratio := util / hpaTargetUtil
	if ratio > 1-hpaTolerance && ratio < 1+hpaTolerance {
		s.hasLow = false
		return false
	}
	desired := int(float64(current)*ratio + 0.999999) // ceil
	if desired < hpaMinReplicas {
		desired = hpaMinReplicas
	}
	if desired > s.cfg.MaxReplicas {
		desired = s.cfg.MaxReplicas
	}
	switch {
	case desired > current:
		s.hasLow = false
		if err := s.c.SetReplicas(s.cfg.Service, desired); err != nil {
			return false
		}
		publishScale(s.c, now, s.Name(), s.cfg.Service, "replicas", float64(current), float64(desired), util)
		return true
	case desired < current:
		// Scale-down stabilization: require sustained low demand.
		if !s.hasLow {
			s.hasLow = true
			s.lowSince = now
			return false
		}
		if now-s.lowSince < sim.Time(hpaScaleDownStabilization) {
			return false
		}
		s.hasLow = false
		if err := s.c.SetReplicas(s.cfg.Service, desired); err != nil {
			return false
		}
		publishScale(s.c, now, s.Name(), s.cfg.Service, "replicas", float64(current), float64(desired), util)
		return true
	default:
		s.hasLow = false
		return false
	}
}

// VPAConfig configures the threshold-based vertical scaler.
type VPAConfig struct {
	// Service is the scaled service (required).
	Service string
	// MinCores/MaxCores bound the per-pod limit; zeros select 1 and 8.
	MinCores, MaxCores float64
}

const (
	// vpaUpUtil is the utilization at or above which cores step up.
	vpaUpUtil = 0.8
	// vpaDownUtil is the utilization at or below which vpaDownAfter
	// consecutive calm periods step cores down.
	vpaDownUtil  = 0.3
	vpaDownAfter = 4
	// vpaStep is the core increment per decision.
	vpaStep = 1
)

// VPAScaler is a simple threshold-based vertical scaler (Kubernetes
// VPA-style): cores step up under high utilization and down after
// sustained low utilization.
type VPAScaler struct {
	cfg  VPAConfig
	c    *cluster.Cluster
	util utilTracker
	calm int
}

// NewVPA returns a threshold-based vertical scaler.
func NewVPA(c *cluster.Cluster, cfg VPAConfig) (*VPAScaler, error) {
	if c == nil {
		return nil, fmt.Errorf("autoscaler: nil cluster")
	}
	if _, err := c.Service(cfg.Service); err != nil {
		return nil, err
	}
	if cfg.MinCores <= 0 {
		cfg.MinCores = 1
	}
	if cfg.MaxCores <= 0 {
		cfg.MaxCores = 8
	}
	if cfg.MaxCores < cfg.MinCores {
		return nil, fmt.Errorf("autoscaler: VPA max cores %g below min %g", cfg.MaxCores, cfg.MinCores)
	}
	return &VPAScaler{cfg: cfg, c: c, util: utilTracker{c: c, service: cfg.Service}}, nil
}

// Name implements core.HardwareScaler.
func (s *VPAScaler) Name() string { return "vpa" }

// Step implements core.HardwareScaler.
func (s *VPAScaler) Step(now sim.Time) bool {
	util, err := s.util.utilization()
	if err != nil {
		return false
	}
	svc, err := s.c.Service(s.cfg.Service)
	if err != nil {
		return false
	}
	cores := svc.Cores()
	switch {
	case util >= vpaUpUtil && cores < s.cfg.MaxCores:
		s.calm = 0
		next := cores + vpaStep
		if next > s.cfg.MaxCores {
			next = s.cfg.MaxCores
		}
		if err := s.c.SetCores(s.cfg.Service, next); err != nil {
			return false
		}
		publishScale(s.c, now, s.Name(), s.cfg.Service, "cores", cores, next, util)
		return true
	case util <= vpaDownUtil && cores > s.cfg.MinCores:
		s.calm++
		if s.calm >= vpaDownAfter {
			s.calm = 0
			next := cores - vpaStep
			if next < s.cfg.MinCores {
				next = s.cfg.MinCores
			}
			if err := s.c.SetCores(s.cfg.Service, next); err != nil {
				return false
			}
			publishScale(s.c, now, s.Name(), s.cfg.Service, "cores", cores, next, util)
			return true
		}
	default:
		s.calm = 0
	}
	return false
}
