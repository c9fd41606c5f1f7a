package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/knee"
	"sora/internal/metrics"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// Figure 7 shows the correlation between Cart concurrency and goodput
// sampled at 100 ms over a 3-minute bursty run, under two response-time
// thresholds. The knee of the scatter moves with the threshold: goodput
// measurement is highly sensitive to threshold selection, which is the
// SCG model's reason to exist. (The paper uses 5 ms and 50 ms thresholds
// on the Cart service's own span latency; the simulated Cart span has an
// ~8 ms service-time floor, so the tight threshold here is 10 ms.)
func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: Cart concurrency-goodput scatter under 2 thresholds (knee shifts)",
		Run:   runFig7,
	})
}

func runFig7(p Params, w io.Writer) error {
	dur := p.scale(3 * time.Minute)
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 40 // roomy pool so concurrency roams across the range
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	r, err := simulatePostRun(p.observe(scenario.Scenario{
		Seed:     p.Seed,
		App:      app,
		Mix:      topology.CartOnlyMix(app),
		Refs:     []cluster.ResourceRef{ref},
		Target:   workload.TraceUsers(workload.LargeVariationTrace(), dur, 1100),
		Duration: dur,
	}))
	if err != nil {
		return err
	}

	conc, err := r.Mon.Concurrency(ref)
	if err != nil {
		return err
	}
	cart, err := r.C.Service(topology.Cart)
	if err != nil {
		return err
	}

	for _, th := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond} {
		qs, gps := metrics.ConcurrencyGoodputPairs(conc, cart.SpanLog(), 0, sim.Time(dur), core.DefaultSampleInterval, th)
		if len(qs) == 0 {
			return fmt.Errorf("fig7: no scatter samples at threshold %v", th)
		}
		// Aggregate per integer concurrency for the printed trend line.
		agg := aggregateByConcurrency(qs, gps)
		res, kerr := knee.FindAuto(qs, gps, knee.AutoOptions{})
		fmt.Fprintf(w, "\nThreshold %v: %d samples at %v granularity\n", th, len(qs), core.DefaultSampleInterval)
		fmt.Fprintf(w, "%12s %16s %8s\n", "concurrency", "goodput[req/s]", "samples")
		var rows [][]float64
		for _, a := range agg {
			marker := ""
			if kerr == nil && int(res.X+0.5) == a.q {
				marker = "  <-- knee"
			}
			fmt.Fprintf(w, "%12d %16.0f %8d%s\n", a.q, a.mean, a.n, marker)
			rows = append(rows, []float64{float64(a.q), a.mean, float64(a.n)})
		}
		if kerr == nil {
			fmt.Fprintf(w, "knee (optimal concurrency) at %.1f, goodput %.0f req/s, degree %d, fallback=%v\n",
				res.X, res.Y, res.Degree, res.Fallback)
		} else {
			fmt.Fprintf(w, "knee detection failed: %v\n", kerr)
		}
		if err := writeCSV(p, fmt.Sprintf("fig7_threshold_%dms", th/time.Millisecond),
			[]string{"concurrency", "mean_goodput_rps", "samples"}, rows); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n(paper: a higher threshold leads to a different knee point — compare the two knee rows)\n")
	return nil
}

type aggPoint struct {
	q    int
	mean float64
	n    int
}

// aggregateByConcurrency averages goodput per rounded concurrency level.
func aggregateByConcurrency(qs, gps []float64) []aggPoint {
	sums := map[int]float64{}
	counts := map[int]int{}
	for i, q := range qs {
		k := int(q + 0.5)
		sums[k] += gps[i]
		counts[k]++
	}
	var out []aggPoint
	for q, sum := range sums {
		out = append(out, aggPoint{q: q, mean: sum / float64(counts[q]), n: counts[q]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].q < out[j].q })
	return out
}
