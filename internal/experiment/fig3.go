package experiment

import (
	"fmt"
	"io"
	"time"
)

// Figure 3 of the paper sweeps soft-resource allocations under fixed
// hardware and shows how the goodput-optimal allocation shifts with
// (a,b) the response-time threshold on a 4-core Cart, (c,d) the CPU
// limit / threshold on a 2-core Cart, and (e,f) the request weight on
// Post Storage connections.
//
// Mapping note: the simulated substrate's service times are roughly
// 5-10x smaller than the paper's deployment, so each panel's thresholds
// scale down correspondingly (the paper's 150/250/350 ms become
// 50/250/350 ms analogs here — the panels compare threshold *tightening*
// and *loosening* around the operating point, which is preserved).
func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: shifting of optimal soft resource allocation (6 panels)",
		Run:   runFig3,
	})
}

const (
	fig3LooseRTT = 250 * time.Millisecond
	fig3TightRTT = 50 * time.Millisecond
	fig3SlackRTT = 350 * time.Millisecond
)

func runFig3(p Params, w io.Writer) error {
	threadSizes := []int{3, 5, 10, 30, 80, 200}
	connSizes := []int{5, 10, 15, 30, 80, 200}

	type panel struct {
		name      string
		paperKnee int
		sweep     sweepCase
		sizes     []int
		threshold time.Duration
		utilOf    string
	}
	panels := []panel{
		{
			name:      "(a) 4-core Cart, loose threshold (250ms; paper: 250ms, knee 30)",
			paperKnee: 30,
			sweep:     cartSweep(4, 1900),
			sizes:     threadSizes,
			threshold: fig3LooseRTT,
			utilOf:    "cart",
		},
		{
			name:      "(b) 4-core Cart, tight threshold (50ms; paper: 150ms, knee 80)",
			paperKnee: 80,
			sweep:     cartSweep(4, 1900),
			sizes:     threadSizes,
			threshold: fig3TightRTT,
			utilOf:    "cart",
		},
		{
			name:      "(c) 2-core Cart, loose threshold (250ms; paper: 250ms, knee 10)",
			paperKnee: 10,
			sweep:     cartSweep(2, 950),
			sizes:     threadSizes,
			threshold: fig3LooseRTT,
			utilOf:    "cart",
		},
		{
			name:      "(d) 2-core Cart, slack threshold (350ms, moderate load; paper: 350ms, knee 5)",
			paperKnee: 5,
			sweep:     cartSweep(2, 550),
			sizes:     threadSizes,
			threshold: fig3SlackRTT,
			utilOf:    "cart",
		},
		{
			name:      "(e) Post Storage connections, light requests (paper knee 10)",
			paperKnee: 10,
			sweep:     postStorageSweep(2000, false),
			sizes:     connSizes,
			threshold: fig3LooseRTT,
			utilOf:    "post-storage",
		},
		{
			name:      "(f) Post Storage connections, heavy requests (paper knee 30)",
			paperKnee: 30,
			sweep:     postStorageSweep(1900, true),
			sizes:     connSizes,
			threshold: fig3LooseRTT,
			utilOf:    "post-storage",
		},
	}

	for pi, panel := range panels {
		thresholds := []time.Duration{panel.threshold}
		points, err := runSweep(p, panel.sweep, panel.sizes, thresholds, panel.utilOf)
		if err != nil {
			return fmt.Errorf("fig3 panel %d: %w", pi, err)
		}
		peak := maxGoodput(points, panel.threshold)
		knee := kneeSize(points, panel.threshold, 0.05)
		fmt.Fprintf(w, "\nFigure 3%s\n", panel.name)
		fmt.Fprintf(w, "%10s %14s %12s %10s %8s\n", "size", "goodput[req/s]", "normalized", "p95[ms]", "cpuUtil")
		var rows [][]float64
		for _, pt := range points {
			norm := 0.0
			if peak > 0 {
				norm = pt.goodput[panel.threshold] / peak
			}
			marker := ""
			if pt.size == knee {
				marker = "  <-- optimal"
			}
			fmt.Fprintf(w, "%10d %14.0f %12.2f %10.0f %8.2f%s\n",
				pt.size, pt.goodput[panel.threshold], norm,
				float64(pt.p95)/float64(time.Millisecond), pt.util, marker)
			rows = append(rows, []float64{float64(pt.size), pt.goodput[panel.threshold], norm, pt.p95.Seconds() * 1000, pt.util})
		}
		fmt.Fprintf(w, "measured optimal = %d  (paper: %d)\n", knee, panel.paperKnee)
		if err := writeCSV(p, fmt.Sprintf("fig3_panel_%c", 'a'+pi), []string{"size", "goodput_rps", "normalized", "p95_ms", "cpu_util"}, rows); err != nil {
			return err
		}
	}
	return nil
}
