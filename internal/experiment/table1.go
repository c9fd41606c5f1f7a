package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/metrics"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/workload"
)

// Table 1 measures the SCG model's optimal-concurrency estimation
// accuracy (MAPE against the sweep-derived ground truth) for the three
// studied services across sampling intervals of 10/20/50/100/200/500 ms.
// The paper finds 100 ms the sweet spot: shorter intervals are too noisy
// per bucket, longer intervals miss the transient concurrency variation.
func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: SCG estimation MAPE vs sampling interval (Cart/Catalogue/PostStorage)",
		Run:   runTable1,
	})
}

// table1Intervals are the sampled granularities of the paper's Table 1.
var table1Intervals = []time.Duration{
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
}

// table1Repeats is how many independent estimation runs (different seeds)
// feed each MAPE cell.
const table1Repeats = 5

func runTable1(p Params, w io.Writer) error {
	cases := fig9Cases() // same three services as Figure 9
	fmt.Fprintf(w, "\nMAPE [%%] of SCG optimal-concurrency estimates vs ground truth\n")
	fmt.Fprintf(w, "%-14s", "interval")
	for _, iv := range table1Intervals {
		fmt.Fprintf(w, " %9s", iv)
	}
	fmt.Fprintln(w)

	var rows [][]float64
	bestByService := map[string]time.Duration{}
	for _, fc := range cases {
		// Ground truth (a sweep) and the repeated estimation runs are
		// independent simulation batches; compute both concurrently.
		// Every interval then re-buckets the same estimation histories.
		// Telemetry sub-groups are created here, on the coordinating
		// goroutine, so their creation order stays deterministic.
		caseGrp := p.Telemetry.Group(fc.measured())
		truthTel := caseGrp.Group("ground-truth")
		runsTel := caseGrp.Group("runs")
		var truth int
		var runs []*estimateRun
		err := parDo(p,
			func() error {
				var err error
				truth, err = table1GroundTruth(p.unitParams(truthTel), fc)
				if err != nil {
					return fmt.Errorf("table1 ground truth for %s: %w", fc.measured(), err)
				}
				return nil
			},
			func() error {
				runs = table1Runs(p.unitParams(runsTel), fc)
				return nil
			},
		)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s", fc.measured())
		row := []float64{float64(truth)}
		bestMAPE, bestIV := 1e18, time.Duration(0)
		for _, iv := range table1Intervals {
			mape, err := table1MAPE(fc, iv, truth, runs)
			if err != nil {
				return fmt.Errorf("table1 %s @%v: %w", fc.measured(), iv, err)
			}
			fmt.Fprintf(w, " %9.2f", mape)
			row = append(row, mape)
			if mape < bestMAPE {
				bestMAPE, bestIV = mape, iv
			}
		}
		bestByService[fc.measured()] = bestIV
		fmt.Fprintf(w, "   (ground truth: %d)\n", truth)
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "\nbest interval per service (paper: 100ms for all three):\n")
	for _, fc := range cases {
		fmt.Fprintf(w, "  %-14s %v\n", fc.measured(), bestByService[fc.measured()])
	}
	header := []string{"ground_truth"}
	for _, iv := range table1Intervals {
		header = append(header, fmt.Sprintf("mape_%dms", iv/time.Millisecond))
	}
	return writeCSV(p, "table1", header, rows)
}

// table1GroundTruth derives the optimal concurrency from a pool-size
// sweep at the estimation workload, measured at the case's threshold.
func table1GroundTruth(p Params, fc fig9Case) (int, error) {
	sizes := []int{3, 5, 8, 10, 15, 20, 30, 45, 60}
	sc := sweepCase{
		build:    fc.build,
		users:    fc.estUsers,
		duration: 100 * time.Second,
		warmup:   10 * time.Second,
		ref:      fc.ref,
	}
	points, err := runSweep(p, sc, sizes, []time.Duration{fc.threshold}, "")
	if err != nil {
		return 0, err
	}
	return kneeSize(points, fc.threshold, 0.05), nil
}

// table1MAPE re-buckets every estimation run's history at the given
// sampling interval and returns the MAPE of the estimates against the
// truth. The expensive simulations ran once in table1Runs; this is pure
// post-processing, mirroring how the paper evaluates intervals on the
// same profiling data.
func table1MAPE(fc fig9Case, interval time.Duration, truth int, runs []*estimateRun) (float64, error) {
	estimates := make([]float64, 0, len(runs))
	truths := make([]float64, 0, len(runs))
	for _, runData := range runs {
		est, err := table1Estimate(runData, fc, interval)
		if err != nil {
			// A failed estimate (blurred knee, too few samples) is the
			// worst case: count it as a 100% error rather than skipping,
			// so unusable intervals score badly instead of invisibly.
			estimates = append(estimates, 0)
			truths = append(truths, float64(truth))
			continue
		}
		estimates = append(estimates, float64(est))
		truths = append(truths, float64(truth))
	}
	return stats.MAPE(truths, estimates)
}

// estimateRun holds one estimation simulation's history: the monitor
// samples at the finest interval (10 ms) and every evaluated interval
// re-buckets it.
type estimateRun struct {
	conc    *metrics.Series
	spanLog *metrics.CompletionLog
	end     sim.Time
}

// table1Runs executes the table1Repeats estimation simulations for the
// case on the worker pool, one independent kernel per repeat seed. A
// repeat whose simulation cannot be set up is carried as nil and scores
// as a failed estimate at every interval (matching the serial behavior of
// counting it as 100% error rather than aborting the table).
func table1Runs(p Params, fc fig9Case) []*estimateRun {
	runs, _ := parMap(p, table1Repeats, func(rep int) (*estimateRun, error) {
		seed := p.Seed + uint64(rep)*7919
		dur := p.scale(3 * time.Minute)
		app, mix := fc.build(fc.estPool)
		r, err := simulatePostRun(p.unitParams(p.Telemetry.Unit(rep, fmt.Sprintf("rep-%d", rep))).observe(scenario.Scenario{
			Seed:           seed,
			App:            app,
			Mix:            mix,
			Refs:           []cluster.ResourceRef{fc.ref},
			Target:         workload.TraceUsers(workload.LargeVariationTrace(), dur, fc.estUsers),
			SampleInterval: 10 * time.Millisecond,
			Duration:       dur,
		}))
		if err != nil {
			return nil, nil
		}
		conc, err := r.Mon.Concurrency(fc.ref)
		if err != nil {
			return nil, nil
		}
		svc, err := r.C.Service(fc.measured())
		if err != nil {
			return nil, nil
		}
		return &estimateRun{conc: conc, spanLog: svc.SpanLog(), end: sim.Time(dur)}, nil
	})
	return runs
}

// table1Estimate produces one optimal-concurrency estimate by re-bucketing
// the run's history at the given interval.
func table1Estimate(runData *estimateRun, fc fig9Case, interval time.Duration) (int, error) {
	if runData == nil {
		return 0, fmt.Errorf("estimation run failed")
	}
	qs, gps := metrics.ConcurrencyGoodputPairs(runData.conc, runData.spanLog, 0, runData.end, interval, fc.threshold)
	if len(qs) < 20 {
		return 0, fmt.Errorf("only %d pairs at interval %v", len(qs), interval)
	}
	res, err := core.EstimateOptimal(qs, gps, 0.05)
	if err != nil {
		return 0, err
	}
	rec := int(res.X + 0.5)
	if rec < 1 {
		rec = 1
	}
	return rec, nil
}
