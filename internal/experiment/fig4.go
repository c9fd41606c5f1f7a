package experiment

import (
	"fmt"
	"io"
	"math"
	"time"

	"sora/internal/metrics"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// Figure 4 plots semi-log response-time histograms of the Cart service
// under two thread allocations, demonstrating why the goodput ordering
// reverses between a tight and a loose threshold: the larger pool admits
// immediately (keeping most requests under the tight threshold, at the
// cost of processor-sharing stretch and overhead), while the smaller pool
// queues requests into the mid-range but preserves capacity for the loose
// threshold.
//
// Mapping note: the paper contrasts 30 vs 80 threads on a 4-core Cart at
// 150/250 ms; in the calibrated substrate the same phenomenon appears at
// 10 vs 30 threads on the 2-core Cart at 50/250 ms (the reversal pair of
// our Figure 3(c) panel).
func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: response time distributions, 2-core Cart with 10 vs 30 threads",
		Run:   runFig4,
	})
}

func runFig4(p Params, w io.Writer) error {
	const (
		binWidth = 5 * time.Millisecond
		numBins  = 60 // covers 0-300ms
		users    = 950
	)
	tight, loose := fig3TightRTT, fig3LooseRTT
	dur := p.scale(3 * time.Minute)
	warm := sim.Time(15 * time.Second)

	type result struct {
		threads int
		hist    *metrics.Histogram
		total   int
		below   map[time.Duration]float64
	}
	allocations := []int{10, 30}
	// One independent simulation per allocation: run both on the pool.
	grp := p.Telemetry.Group("allocations")
	results, err := parMap(p, len(allocations), func(i int) (result, error) {
		threads := allocations[i]
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = threads
		app := topology.SockShop(cfg)
		r, err := simulate(p.unitParams(grp.Unit(i, fmt.Sprintf("threads-%d", threads))).observe(scenario.Scenario{
			Seed:     p.Seed,
			App:      app,
			Mix:      topology.CartOnlyMix(app),
			Target:   workload.ConstantUsers(users),
			Duration: dur,
		}))
		if err != nil {
			return result{}, err
		}
		hist, err := metrics.NewHistogram(binWidth, numBins)
		if err != nil {
			return result{}, err
		}
		for _, c := range r.E2E.Window(warm, sim.Time(dur)) {
			hist.Observe(c.RT)
		}
		res := result{threads: threads, hist: hist, total: hist.Total(), below: map[time.Duration]float64{}}
		for _, th := range []time.Duration{tight, loose} {
			res.below[th] = hist.FractionBelow(th)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	// Render the two histograms side by side on a log scale (bar length
	// proportional to log10(count)).
	fmt.Fprintf(w, "\nSemi-log response-time histograms (bin %v, * per decade-scaled count)\n", binWidth)
	var rows [][]float64
	for bi := 0; bi < numBins; bi++ {
		lo := time.Duration(bi) * binWidth
		cSmall := results[0].hist.Bins()[bi]
		cLarge := results[1].hist.Bins()[bi]
		if cSmall == 0 && cLarge == 0 {
			continue
		}
		rows = append(rows, []float64{lo.Seconds() * 1000, float64(cSmall), float64(cLarge)})
		if p.Quiet {
			continue
		}
		fmt.Fprintf(w, "%6.0fms | %2dthr %-28s | %2dthr %-28s\n",
			lo.Seconds()*1000, results[0].threads, logBar(cSmall), results[1].threads, logBar(cLarge))
	}
	fmt.Fprintf(w, "\noverflow(>%v): %dthr=%d %dthr=%d\n",
		time.Duration(numBins)*binWidth,
		results[0].threads, results[0].hist.Overflow(),
		results[1].threads, results[1].hist.Overflow())

	fmt.Fprintf(w, "\n%20s %14s %14s\n", "",
		fmt.Sprintf("%d threads", results[0].threads),
		fmt.Sprintf("%d threads", results[1].threads))
	for _, th := range []time.Duration{tight, loose} {
		fmt.Fprintf(w, "frac RT <= %-8v %13.1f%% %13.1f%%\n",
			th, results[0].below[th]*100, results[1].below[th]*100)
	}
	order := func(th time.Duration) string {
		if results[0].below[th] > results[1].below[th] {
			return fmt.Sprintf("%d threads wins", results[0].threads)
		}
		return fmt.Sprintf("%d threads wins", results[1].threads)
	}
	fmt.Fprintf(w, "\nordering at tight threshold (%v): %s\n", tight, order(tight))
	fmt.Fprintf(w, "ordering at loose threshold (%v): %s\n", loose, order(loose))
	fmt.Fprintf(w, "(paper: the performance order reverses between thresholds)\n")
	return writeCSV(p, "fig4_histograms", []string{"bin_lo_ms", "count_small_pool", "count_large_pool"}, rows)
}

// logBar renders a log10-scaled bar for histogram counts.
func logBar(count int) string {
	if count <= 0 {
		return ""
	}
	n := int(math.Round(math.Log10(float64(count))*4)) + 1
	if n < 1 {
		n = 1
	}
	if n > 28 {
		n = 28
	}
	bar := make([]byte, n)
	for i := range bar {
		bar[i] = '*'
	}
	return string(bar)
}
