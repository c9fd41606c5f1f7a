package experiment

import (
	"time"

	"sora/internal/scenario"
	"sora/internal/sim"
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
