package experiment

import (
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/metrics"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/trace"
)

// simulate builds the scenario and executes it.
func simulate(s scenario.Scenario) (*scenario.Rig, error) {
	r, err := s.Build()
	if err != nil {
		return nil, err
	}
	execute(r)
	return r, nil
}

// buildPostRun builds s for an experiment that reads the span logs of
// its refs' measured services after the run. It declares them at
// trace.DefaultRetention, not at the run's length: the drain after the
// run completes more work, and each prune is taken relative to the
// completion that triggers it, so a log declared at the run's length
// would lose its first drain-length.
func buildPostRun(s scenario.Scenario) (*scenario.Rig, error) {
	r, err := s.Build()
	if err != nil {
		return nil, err
	}
	for _, ref := range s.Refs {
		if err := r.C.RecordSpans(core.ManagedResource{Ref: ref}.MeasuredService(), trace.DefaultRetention); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// simulatePostRun builds the scenario with buildPostRun and executes it.
func simulatePostRun(s scenario.Scenario) (*scenario.Rig, error) {
	r, err := buildPostRun(s)
	if err != nil {
		return nil, err
	}
	execute(r)
	return r, nil
}

// execute runs a built scenario and adds its kernel to the run tally.
func execute(r *scenario.Rig) {
	r.Run()
	noteKernelRun(r.K)
}

// timeline samples named gauges once per tick into rows for CSV/ASCII
// output.
type timeline struct {
	k        *sim.Kernel
	interval time.Duration
	names    []string
	fns      []func() float64
	rows     [][]float64
	ticker   *sim.Ticker
}

// newTimeline creates a recorder at the given cadence; attach it to
// the rig so it samples the measured window.
func newTimeline(k *sim.Kernel, interval time.Duration) *timeline {
	return &timeline{k: k, interval: interval}
}

// column registers one sampled column.
func (tl *timeline) column(name string, fn func() float64) {
	tl.names = append(tl.names, name)
	tl.fns = append(tl.fns, fn)
}

func (tl *timeline) Start() {
	k := tl.k
	tl.ticker = k.Every(tl.interval, func() {
		row := make([]float64, 0, len(tl.fns)+1)
		row = append(row, k.Now().Seconds())
		for _, fn := range tl.fns {
			row = append(row, fn())
		}
		tl.rows = append(tl.rows, row)
	})
}

func (tl *timeline) Stop() { tl.ticker.Stop() }

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

// The column readers the figure timelines share. Each is declared
// before the run; a reader with state keeps its own marks from t = 0.

// meanRT samples the mean response time (ms) of the completions logged
// since the previous tick, or 0 when there were none.
func (tl *timeline) meanRT(name string, log *metrics.CompletionLog) {
	var last sim.Time
	tl.column(name, func() float64 {
		since, until := last, tl.k.Now()
		last = until
		rts := log.ResponseTimes(since, until)
		if len(rts) == 0 {
			return 0
		}
		var sum float64
		for _, v := range rts {
			sum += v
		}
		return sum / float64(len(rts))
	})
}

// goodput samples the goodput rate (requests/s within threshold) over
// the trailing tick.
func (tl *timeline) goodput(name string, log *metrics.CompletionLog, threshold time.Duration) {
	tl.column(name, func() float64 {
		now := tl.k.Now()
		return log.GoodputRate(now-sim.Time(tl.interval), now, threshold)
	})
}

// utilPct samples svc's CPU utilization since the previous tick as a
// percent of one core (the paper's "Pod CPU Util [%]"), read through a
// UtilMeter.
func (tl *timeline) utilPct(name string, svc *cluster.Service) {
	m := cluster.NewUtilMeter(svc)
	tl.column(name, func() float64 {
		util, _ := m.Next()
		return util * svc.TotalCores() * 100
	})
}

// poolSize samples the per-pod size of a soft resource, or 0 when it
// cannot be read.
func (tl *timeline) poolSize(name string, c *cluster.Cluster, ref cluster.ResourceRef) {
	tl.column(name, func() float64 {
		size, err := c.PoolSize(ref)
		if err != nil {
			return 0
		}
		return float64(size)
	})
}

// poolInUse samples the busy slots of a soft resource across pods, or 0
// when it cannot be read.
func (tl *timeline) poolInUse(name string, c *cluster.Cluster, ref cluster.ResourceRef) {
	tl.column(name, func() float64 {
		n, err := c.PoolInUse(ref)
		if err != nil {
			return 0
		}
		return float64(n)
	})
}

// replicas samples svc's pod count.
func (tl *timeline) replicas(name string, svc *cluster.Service) {
	tl.column(name, func() float64 { return float64(svc.Replicas()) })
}
