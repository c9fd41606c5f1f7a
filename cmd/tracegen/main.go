// Command tracegen emits the six bursty workload traces as CSV time
// series (time fraction or absolute seconds vs intensity or user count),
// for plotting or for replay against external systems. To see where a
// trace's load spends its time, drive it through simrun instead:
//
//	simrun -app sockshop -cart-threads 5 -trace big_spike -peak 900 -duration 2m -folded big_spike.folded
//
// Usage:
//
//	tracegen                              # all traces, normalized, 200 points
//	tracegen -trace big_spike             # one trace
//	tracegen -duration 12m -peak 3500     # absolute seconds and user counts
//	tracegen -points 720 -out traces/     # one CSV per trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sora/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("trace", "", "trace name (empty = all six)")
		points   = flag.Int("points", 200, "samples per trace")
		duration = flag.Duration("duration", 0, "emit absolute time in seconds over this duration (0 = normalized fraction)")
		peak     = flag.Int("peak", 0, "emit user counts at this peak (0 = normalized intensity)")
		out      = flag.String("out", "", "directory for per-trace CSV files (empty = stdout)")
	)
	flag.Parse()

	if *points < 2 {
		return fmt.Errorf("need at least 2 points, got %d", *points)
	}

	var traces []workload.Trace
	if *name == "" {
		traces = workload.Traces()
	} else {
		tr, err := workload.TraceByName(*name)
		if err != nil {
			return err
		}
		traces = []workload.Trace{tr}
	}

	for _, tr := range traces {
		var w io.Writer = os.Stdout
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*out, tr.Name+".csv"))
			if err != nil {
				return err
			}
			w = f
			if err := emit(w, tr, *points, *duration, *peak); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "# trace: %s\n", tr.Name)
		if err := emit(w, tr, *points, *duration, *peak); err != nil {
			return err
		}
	}
	return nil
}

func emit(w io.Writer, tr workload.Trace, points int, duration time.Duration, peak int) error {
	xHeader, yHeader := "frac", "intensity"
	if duration > 0 {
		xHeader = "t_s"
	}
	if peak > 0 {
		yHeader = "users"
	}
	if _, err := fmt.Fprintf(w, "%s,%s\n", xHeader, yHeader); err != nil {
		return err
	}
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		x := f
		if duration > 0 {
			x = f * duration.Seconds()
		}
		intensity := tr.Intensity(f)
		if peak > 0 {
			if _, err := fmt.Fprintf(w, "%g,%d\n", x, int(intensity*float64(peak))); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%g,%g\n", x, intensity); err != nil {
			return err
		}
	}
	return nil
}
