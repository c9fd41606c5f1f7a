// Package core implements the paper's primary contribution: the
// Scatter-Concurrency-Goodput (SCG) model (section 3) and the Sora
// framework that wraps it (section 4) — a Monitoring Module sampling
// fine-grained runtime metrics, a Concurrency Estimator running the SCG
// pipeline (critical-service localization, deadline propagation, metrics
// collection, knee estimation), and a Reallocation Module that pairs a
// hardware-only autoscaler with the Concurrency Adapter.
//
// The latency-agnostic Scatter-Concurrency-Throughput (SCT) model of
// ConScale (Liu et al., IPDPS 2020) is implemented alongside as the
// baseline the paper compares against.
package core

import (
	"fmt"
	"time"

	"sora/internal/cluster"
	"sora/internal/metrics"
	"sora/internal/sim"
)

// DefaultSampleInterval is the fine-grained metric sampling period. The
// paper's Table 1 sensitivity analysis finds 100 ms minimizes estimation
// error across all three studied services.
const DefaultSampleInterval = 100 * time.Millisecond

// Monitor is the Monitoring Module: it samples the instantaneous
// concurrency of tracked soft resources and per-service CPU utilization
// at a fixed fine-grained interval, mirroring the cadvisor+Jaeger agents
// of the paper's deployment. Trace data itself is recorded by the cluster
// into its warehouse; the monitor only adds the gauge series the SCG
// scatter plots need.
type Monitor struct {
	c        *cluster.Cluster
	interval time.Duration

	conc map[cluster.ResourceRef]*metrics.Series

	utilServices []string
	util         map[string]*metrics.Series
	lastWork     map[string]float64
	lastCap      map[string]float64

	ticker  *sim.Ticker
	running bool
}

// NewMonitor returns a monitor sampling the given soft resources and the
// CPU utilization of the given services every interval (zero selects
// DefaultSampleInterval). Start must be called to begin sampling.
func NewMonitor(c *cluster.Cluster, interval time.Duration, refs []cluster.ResourceRef, utilServices []string) (*Monitor, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	m := &Monitor{
		c:            c,
		interval:     interval,
		conc:         make(map[cluster.ResourceRef]*metrics.Series, len(refs)),
		utilServices: append([]string(nil), utilServices...),
		util:         make(map[string]*metrics.Series, len(utilServices)),
		lastWork:     make(map[string]float64, len(utilServices)),
		lastCap:      make(map[string]float64, len(utilServices)),
	}
	for _, ref := range refs {
		if _, err := c.PoolInUse(ref); err != nil {
			return nil, fmt.Errorf("core: cannot monitor %v: %w", ref, err)
		}
		m.conc[ref] = &metrics.Series{}
	}
	for _, name := range m.utilServices {
		svc, err := c.Service(name)
		if err != nil {
			return nil, fmt.Errorf("core: cannot monitor utilization: %w", err)
		}
		m.util[name] = &metrics.Series{}
		m.lastWork[name] = svc.CumulativeBusy()
		m.lastCap[name] = svc.CumulativeCapacity()
	}
	return m, nil
}

// Start begins sampling. Idempotent.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	m.ticker = m.c.Kernel().Every(m.interval, m.sample)
}

// Stop halts sampling. The collected series remain queryable.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.ticker.Stop()
}

func (m *Monitor) sample() {
	now := m.c.Kernel().Now()
	for ref, series := range m.conc {
		n, err := m.c.PoolInUse(ref)
		if err != nil {
			continue // service disappeared: skip, keep older samples
		}
		series.Add(now, float64(n))
	}
	for _, name := range m.utilServices {
		svc, err := m.c.Service(name)
		if err != nil {
			continue
		}
		work := svc.CumulativeBusy()
		capacity := svc.CumulativeCapacity()
		dw := work - m.lastWork[name]
		dc := capacity - m.lastCap[name]
		m.lastWork[name] = work
		m.lastCap[name] = capacity
		if dc > 0 {
			m.util[name].Add(now, dw/dc)
		}
	}
	// Bound memory: gauge history older than the warehouse retention is
	// useless to every consumer.
	cutoff := now - m.c.Warehouse().Retention()
	for _, series := range m.conc {
		series.Prune(cutoff)
	}
	for _, series := range m.util {
		series.Prune(cutoff)
	}
}

// Concurrency returns the sampled concurrency series of a tracked
// resource, or an error if the resource is not tracked.
func (m *Monitor) Concurrency(ref cluster.ResourceRef) (*metrics.Series, error) {
	s, ok := m.conc[ref]
	if !ok {
		return nil, fmt.Errorf("core: resource %v is not tracked", ref)
	}
	return s, nil
}

// MeanUtil returns the mean CPU utilization of a service over
// [since, until), or 0 when no samples exist.
func (m *Monitor) MeanUtil(service string, since, until sim.Time) float64 {
	s, ok := m.util[service]
	if !ok {
		return 0
	}
	pts := s.Window(since, until)
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}
