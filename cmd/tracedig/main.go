// Command tracedig is the offline latency-attribution analyzer: it reads
// trace archives exported by the simulator (JSONL, written by
// `simrun -trace-archive` or trace.ExportAll) or folded-stack profiles
// (written by `sorabench -slo` into the telemetry directory, or by
// `simrun -folded`) and prints where end-to-end response time went.
//
// For trace archives it recomputes critical-path blame per trace — the
// same integer-nanosecond attribution the in-process profiler performs,
// so the printed profile is identical to the one the run emitted — and
// can additionally break down SLO violations and re-export folded
// stacks. For folded inputs it aggregates and summarizes what the stacks
// already contain.
//
// Usage:
//
//	tracedig run.traces.jsonl                      # blame table
//	tracedig -slo 500ms run.traces.jsonl           # + SLO-violation breakdown
//	tracedig -folded out.folded run.traces.jsonl   # + flamegraph input file
//	tracedig results/sweep_*.folded                # summarize telemetry artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sora/internal/profile"
	"sora/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracedig:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("tracedig", flag.ContinueOnError)
	var (
		slo       = fs.Duration("slo", 0, "SLO for the violation breakdown (trace archives only)")
		foldedOut = fs.String("folded", "", "write folded stacks (flamegraph.pl input) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input files (want trace archives or .folded profiles)")
	}
	p, err := analyze(fs.Args(), *slo)
	if err != nil {
		return err
	}
	if err := p.WriteTable(stdout); err != nil {
		return err
	}
	if *foldedOut != "" {
		f, err := os.Create(*foldedOut)
		if err != nil {
			return err
		}
		if err := profile.WriteFolded(f, p); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %d folded stacks to %s\n", len(p.Folded), *foldedOut)
	}
	return nil
}

// analyze builds one aggregate profile from the inputs. Trace archives
// are re-attributed from scratch; folded files are merged as-is. The two
// input kinds carry incompatible information, so mixing them is an
// error.
func analyze(paths []string, slo time.Duration) (*profile.Profile, error) {
	var archives, folded []string
	for _, p := range paths {
		if strings.HasSuffix(p, ".folded") {
			folded = append(folded, p)
		} else {
			archives = append(archives, p)
		}
	}
	if len(archives) > 0 && len(folded) > 0 {
		return nil, fmt.Errorf("cannot mix trace archives and .folded profiles in one run")
	}
	if len(folded) > 0 {
		if slo > 0 {
			return nil, fmt.Errorf("-slo needs per-trace data; folded profiles carry only aggregates")
		}
		var lines []profile.FoldedLine
		for _, path := range folded {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			ls, err := profile.ReadFolded(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			lines = append(lines, ls...)
		}
		return profile.ProfileFromFolded(lines)
	}
	agg := profile.NewAggregator(slo)
	for _, path := range archives {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		traces, err := trace.ImportAll(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		agg.AddAll(traces)
	}
	return agg.Snapshot(), nil
}
