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
	"sora/internal/trace"
)

// DefaultSampleInterval is the fine-grained metric sampling period. The
// paper's Table 1 sensitivity analysis finds 100 ms minimizes estimation
// error across all three studied services.
const DefaultSampleInterval = 100 * time.Millisecond

// DefaultWindow is the metrics-collection window the paper chooses: 600
// samples at 100 ms cover the knee while staying agile. SCGConfig.Window
// defaults to it, and a monitor with resources to measure declares it as
// the reach of the trace warehouse.
const DefaultWindow = 60 * time.Second

// Monitor is the Monitoring Module: it samples the instantaneous
// concurrency of tracked soft resources and per-service CPU utilization
// at a fixed fine-grained interval, mirroring the cadvisor+Jaeger agents
// of the paper's deployment. Trace data itself is recorded by the cluster
// into its warehouse, which a monitor with resources to measure declares
// (the Jaeger half of the agent); the monitor only adds the gauge series
// the SCG scatter plots need.
type Monitor struct {
	c        *cluster.Cluster
	interval time.Duration

	conc []concSeries
	util []utilSeries

	ticker  *sim.Ticker
	running bool
}

// concSeries is the sampled concurrency of one tracked soft resource.
type concSeries struct {
	ref    cluster.ResourceRef
	series *metrics.Series
}

// utilSeries is the sampled CPU utilization of one service.
type utilSeries struct {
	name   string
	meter  *cluster.UtilMeter
	series *metrics.Series
}

// NewMonitor returns a monitor sampling the given soft resources and the
// CPU utilization of the given services every interval (zero selects
// DefaultSampleInterval). It declares the span log of each resource's
// measured service (Cluster.RecordSpans) and, given at least one
// resource, the scan records of the trace warehouse
// (Cluster.RetainScans) the models estimating those resources read and
// the end-to-end completion log (Cluster.RecordCompletions), each with
// a reach of DefaultWindow, so build it before the run, and a model
// with a longer window too (Cluster documents the declaration rule).
// Start must be called to begin sampling.
func NewMonitor(c *cluster.Cluster, interval time.Duration, refs []cluster.ResourceRef, utilServices []string) (*Monitor, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	m := &Monitor{c: c, interval: interval}
	for _, ref := range refs {
		if _, err := c.PoolInUse(ref); err != nil {
			return nil, fmt.Errorf("core: cannot monitor %v: %w", ref, err)
		}
		// The monitor is where a soft resource is registered for
		// measurement, so it declares the one span log every reader of
		// that resource (SCG, SCT, goodFraction) reads.
		if err := c.RecordSpans(ManagedResource{Ref: ref}.MeasuredService(), DefaultWindow); err != nil {
			return nil, fmt.Errorf("core: cannot monitor %v: %w", ref, err)
		}
		m.conc = append(m.conc, concSeries{ref: ref, series: &metrics.Series{}})
	}
	if len(refs) > 0 {
		if err := c.RetainScans(DefaultWindow); err != nil {
			return nil, fmt.Errorf("core: monitor: %w", err)
		}
		// Nothing in this module reads the end-to-end log through the
		// monitor; the benchmark's window probe does, on a rig whose only
		// declarer is its monitor.
		if err := c.RecordCompletions(DefaultWindow); err != nil {
			return nil, fmt.Errorf("core: monitor: %w", err)
		}
	}
	for _, name := range utilServices {
		svc, err := c.Service(name)
		if err != nil {
			return nil, fmt.Errorf("core: cannot monitor utilization: %w", err)
		}
		m.util = append(m.util, utilSeries{name: name, meter: cluster.NewUtilMeter(svc), series: &metrics.Series{}})
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
	// Bound memory: gauge history older than trace.DefaultRetention, the
	// cap on every history a reader can declare, is useless to every
	// consumer. The series keep the cap, not the monitor's window:
	// observedConcurrency and MeanUtil read back further.
	cutoff := now - trace.DefaultRetention
	for _, cs := range m.conc {
		if n, err := m.c.PoolInUse(cs.ref); err == nil {
			cs.series.Add(now, float64(n))
		}
		cs.series.Prune(cutoff)
	}
	for _, us := range m.util {
		if util, ok := us.meter.Next(); ok {
			us.series.Add(now, util)
		}
		us.series.Prune(cutoff)
	}
}

// Concurrency returns the sampled concurrency series of a tracked
// resource, or an error if the resource is not tracked.
func (m *Monitor) Concurrency(ref cluster.ResourceRef) (*metrics.Series, error) {
	for _, cs := range m.conc {
		if cs.ref == ref {
			return cs.series, nil
		}
	}
	return nil, fmt.Errorf("core: resource %v is not tracked", ref)
}

// MeanUtil returns the mean CPU utilization of a service over
// [since, until), or 0 when no samples exist.
func (m *Monitor) MeanUtil(service string, since, until sim.Time) float64 {
	for _, us := range m.util {
		if us.name != service {
			continue
		}
		pts := us.series.Window(since, until)
		if len(pts) == 0 {
			return 0
		}
		var sum float64
		for _, p := range pts {
			sum += p.V
		}
		return sum / float64(len(pts))
	}
	return 0
}
