// Command sorabench regenerates the tables and figures of the Sora paper
// on the simulated cluster substrate.
//
// Usage:
//
//	sorabench -exp fig10              # one experiment
//	sorabench -exp fig3,table2       # several
//	sorabench -exp all               # everything
//	sorabench -list                  # show available experiments
//
// Output is human-readable text (tables plus ASCII timelines); pass
// -out DIR to also write CSV series for plotting. -scale 0.25 compresses
// run durations for quick smoke checks (results become noisier).
//
// Experiments execute on a bounded worker pool: independent simulations
// (sweep points, strategy pairs, whole figures) fan out across cores, one
// sim.Kernel per run, and results merge in deterministic order — stdout
// is byte-identical to a serial run for the same seed. -parallel N sets
// the pool size (default GOMAXPROCS); -serial forces one worker. Timing
// and event-throughput diagnostics go to stderr so they never perturb the
// experiment output.
//
// -bench-json FILE runs the kernel hot-path micro-benchmark suite
// (internal/bench) instead of experiments and records the results as an
// entry in FILE — the BENCH_kernel.json performance trajectory; see
// EXPERIMENTS.md. -bench-quick shrinks the measurement window to a
// compile-and-run smoke check whose numbers are not meaningful (used by
// verify.sh); -bench-label/-bench-note control the recorded entry.
//
// -telemetry-dir DIR enables the structured event log: every experiment
// writes <id>.events.jsonl (controller decisions, reconfigs, faults),
// <id>.metrics.prom (Prometheus text snapshot, including per-service
// per-phase latency histograms), <id>.trace.json (Chrome trace format —
// load at ui.perfetto.dev), <id>.profile.txt (latency-attribution blame
// tables; -slo adds the violation breakdown) and <id>.folded
// (flamegraph.pl / tracedig input) into DIR. Artifacts are
// byte-identical between serial and parallel runs of the same seed.
//
// -timeline DIR arms a flight recorder on every cluster the experiments
// build and writes <id>.timeline.jsonl into DIR: per-service latency
// sketch quantiles, rates and pool state once per window
// (-timeline-window, default 1s), interleaved with controller decisions
// and fault markers. Feed the directory to soradash for an offline HTML
// dashboard. Timelines are byte-identical at any -parallel setting.
//
// With either flag every experiment also writes <id>.manifest.json
// (soradiff input), which names each artifact by its path inside the
// manifest's directory. With both flags the manifests go to whichever
// directory holds the other (-telemetry-dir out -timeline out/tl);
// two directories side by side are refused.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sora/internal/bench"
	"sora/internal/compare"
	"sora/internal/experiment"
	"sora/internal/profile"
	"sora/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sorabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sorabench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "", "comma-separated experiment ids, or 'all'")
		list     = fs.Bool("list", false, "list available experiments")
		seed     = fs.Uint64("seed", 1, "simulation seed (same seed = identical output)")
		out      = fs.String("out", "", "directory for CSV output (optional)")
		scale    = fs.Float64("scale", 1.0, "duration scale in (0,1] for quick runs")
		quiet    = fs.Bool("quiet", false, "suppress ASCII charts")
		parallel = fs.Int("parallel", 0, "worker pool size for independent simulations (0 = GOMAXPROCS)")
		serial   = fs.Bool("serial", false, "force serial execution (same as -parallel 1)")
		telDir   = fs.String("telemetry-dir", "", "directory for per-experiment telemetry artifacts (optional)")
		tlDir    = fs.String("timeline", "", "directory for per-experiment flight-recorder timelines (<id>.timeline.jsonl — soradash input)")
		tlWindow = fs.Duration("timeline-window", time.Second, "flight-recorder window length for -timeline")
		slo      = fs.Duration("slo", 0, "SLO for the profile artifacts' violation breakdown (0 = disabled)")
		chaos    = fs.String("chaos", "", "run the chaos comparison under the named fault plan (see internal/fault.Names)")

		benchJSON  = fs.String("bench-json", "", "run the kernel micro-benchmark suite and record the results into FILE")
		benchQuick = fs.Bool("bench-quick", false, "shrink the bench measurement window to a smoke check (numbers not meaningful)")
		benchLabel = fs.String("bench-label", "current", "label for the recorded bench entry (same label = refresh in place)")
		benchNote  = fs.String("bench-note", "", "free-form note stored with the bench entry")

		baseline       = fs.String("baseline", "", "replay the pinned regression-sentinel suite and check it against the baseline FILE (see scripts/regress.sh)")
		baselineQuick  = fs.Bool("baseline-quick", false, "check only the deterministic sim metrics (skips the machine-sensitive bench numbers)")
		baselineUpdate = fs.Bool("baseline-update", false, "regenerate the baseline FILE from the fresh run instead of checking")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchJSON != "" {
		return runBenchSuite(*benchJSON, *benchLabel, *benchNote, *benchQuick)
	}
	if *baseline != "" {
		workers := *parallel
		if *serial {
			workers = 1
		}
		return runBaselineCheck(*baseline, workers, *baselineQuick, *baselineUpdate)
	}

	if *list || (*exp == "" && *chaos == "") {
		fmt.Println("available experiments:")
		for _, e := range experiment.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" && *chaos == "" && !*list {
			return fmt.Errorf("pass -exp <id>[,<id>...], -exp all, or -chaos <plan>")
		}
		return nil
	}

	manDir, err := manifestDir(*telDir, *tlDir)
	if err != nil {
		return err
	}

	workers := *parallel
	if *serial {
		workers = 1
	}
	params := experiment.Params{
		Seed:          *seed,
		OutDir:        *out,
		DurationScale: *scale,
		Quiet:         *quiet,
		Parallelism:   workers,
	}
	if *tlDir != "" {
		params.Timeline = *tlWindow
	}

	var selected []experiment.Experiment
	if *exp == "all" {
		selected = experiment.All()
	} else if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, err := experiment.ByID(id)
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	if *chaos != "" {
		// A synthetic experiment so -chaos composes with -telemetry-dir,
		// -parallel and the rest of the runner machinery.
		plan := *chaos
		selected = append(selected, experiment.Experiment{
			ID:    "chaos_" + plan,
			Title: fmt.Sprintf("Chaos: fault plan %q — static vs autoscaler vs Sora", plan),
			Run: func(p experiment.Params, w io.Writer) error {
				return experiment.RunChaos(p, w, plan)
			},
		})
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments selected")
	}

	// Whole experiments are themselves independent work items: run them
	// on the worker pool, each buffering its output, and print in
	// selection order so stdout is identical to a serial run. Wall-clock
	// and simulation-event throughput go to stderr.
	var opts []experiment.RunOption
	var recs []*telemetry.Recorder
	var profs []*profile.Aggregator
	if *telDir != "" || *tlDir != "" {
		recs = make([]*telemetry.Recorder, len(selected))
		profs = make([]*profile.Aggregator, len(selected))
		for i, e := range selected {
			recs[i] = telemetry.NewRecorder(e.ID)
			// Self-identification record at t=0: every event log and
			// timeline leads with the invocation that produced it, so
			// soradiff can align runs without out-of-band context.
			recs[i].Publish(0, "run.manifest",
				telemetry.String("id", e.ID),
				telemetry.String("tool", "sorabench"),
				telemetry.Int64("seed", int64(*seed)),
				telemetry.Float("scale", *scale),
			)
			profs[i] = profile.NewAggregator(*slo)
		}
		opts = append(opts, experiment.WithRecorders(func(i int, _ experiment.Experiment) *telemetry.Recorder {
			return recs[i]
		}))
		opts = append(opts, experiment.WithProfiles(func(i int, _ experiment.Experiment) *profile.Aggregator {
			return profs[i]
		}))
	}
	if params.Workers() > 1 {
		// Live progress on stderr: experiments finish out of order under
		// the pool, and the buffered stdout only appears at the end.
		total := len(selected)
		opts = append(opts, experiment.WithProgress(func(ev experiment.ProgressEvent) {
			if !ev.Done {
				fmt.Fprintf(os.Stderr, "[%d/%d %s running]\n", ev.Index+1, total, ev.Experiment.ID)
				return
			}
			status := "done"
			if ev.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d %s %s in %v]\n",
				ev.Index+1, total, ev.Experiment.ID, status, ev.Wall.Round(time.Millisecond))
		}))
	}
	experiment.ResetRunStats()
	start := time.Now() //soravet:allow wallclock benchmark timing measures real wall time by design
	results := experiment.RunMany(params, selected, opts...)
	wall := time.Since(start) //soravet:allow wallclock benchmark timing measures real wall time by design

	var firstErr error
	for i, rec := range recs {
		// The profile's phase histograms ride along in the Prometheus
		// snapshot, so flush before the files are rendered.
		profs[i].FlushTelemetry(rec)
		id := selected[i].ID
		var written []string
		if *telDir != "" {
			if err := rec.WriteFiles(*telDir, id); err != nil {
				fmt.Fprintf(os.Stderr, "sorabench: telemetry for %s: %v\n", id, err)
				if firstErr == nil {
					firstErr = err
				}
			} else {
				for _, suffix := range []string{".events.jsonl", ".metrics.prom", ".trace.json"} {
					written = append(written, filepath.Join(*telDir, id+suffix))
				}
			}
			if err := writeProfile(*telDir, id, profs[i].Snapshot()); err != nil {
				fmt.Fprintf(os.Stderr, "sorabench: profile for %s: %v\n", id, err)
				if firstErr == nil {
					firstErr = err
				}
			} else {
				written = append(written,
					filepath.Join(*telDir, id+".profile.txt"),
					filepath.Join(*telDir, id+".folded"))
			}
		}
		if *tlDir != "" {
			if err := writeTimeline(*tlDir, id, rec); err != nil {
				fmt.Fprintf(os.Stderr, "sorabench: timeline for %s: %v\n", id, err)
				if firstErr == nil {
					firstErr = err
				}
			} else {
				written = append(written, filepath.Join(*tlDir, id+".timeline.jsonl"))
			}
		}
		// The manifest digests everything just written.
		if err := writeExpManifest(manDir, id, *seed, *scale, rec, written); err != nil {
			fmt.Fprintf(os.Stderr, "sorabench: manifest for %s: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, res := range results {
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s — %s\n", res.Experiment.ID, res.Experiment.Title)
		fmt.Printf("==================================================================\n")
		os.Stdout.WriteString(res.Output)
		fmt.Println()
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "sorabench: %s failed: %v\n", res.Experiment.ID, res.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", res.Experiment.ID, res.Err)
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v wall time, %s sim events]\n",
			res.Experiment.ID, res.Wall.Round(time.Millisecond), fmtCount(res.Events))
	}
	runs, events := experiment.RunStats()
	rate := float64(events) / wall.Seconds()
	fmt.Fprintf(os.Stderr, "[total: %d experiments, %d sim runs, %s events in %v wall time — %s events/s, %d workers]\n",
		len(results), runs, fmtCount(events), wall.Round(time.Millisecond), fmtCount(uint64(rate)), params.Workers())
	return firstErr
}

// runBenchSuite executes the kernel micro-benchmark suite, prints the
// results, and upserts them as an entry into the JSON report at path.
// Quick mode shrinks the benchtime to a smoke run and skips the file
// write, so verify.sh can exercise the whole path without committing
// meaningless numbers.
func runBenchSuite(path, label, note string, quick bool) error {
	if quick {
		testing.Init()
		if err := flag.Set("test.benchtime", "10ms"); err != nil {
			return err
		}
	}
	results := bench.Run()
	fmt.Printf("%-32s %12s %10s %8s %14s\n", "benchmark", "ns/op", "B/op", "allocs", "events/s")
	for _, r := range results {
		fmt.Printf("%-32s %12.1f %10d %8d %14s\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, fmtCount(uint64(r.EventsPerSec)))
	}
	if quick {
		fmt.Println("(quick mode: smoke run only, results not recorded)")
		return nil
	}
	report, err := bench.LoadReport(path)
	if err != nil {
		return err
	}
	report.Upsert(bench.Entry{
		Label:   label,
		Go:      runtime.Version(),
		Note:    note,
		Results: results,
	})
	if err := bench.WriteReport(path, report); err != nil {
		return err
	}
	fmt.Printf("recorded entry %q in %s (%d entries)\n", label, path, len(report.Entries))
	return nil
}

// manifestDir returns the directory the experiment manifests go to:
// whichever of telDir and tlDir holds the other (telDir when they are
// the same), or the one that is set. A manifest names its artifacts by
// paths inside its own directory, so two directories side by side
// leave no place for it and are refused before anything runs.
func manifestDir(telDir, tlDir string) (string, error) {
	if telDir == "" || tlDir == "" {
		return telDir + tlDir, nil
	}
	tel, err := filepath.Abs(telDir)
	if err != nil {
		return "", err
	}
	tl, err := filepath.Abs(tlDir)
	if err != nil {
		return "", err
	}
	if _, err := compare.ArtifactName(tel, tl); err == nil {
		return telDir, nil
	}
	if _, err := compare.ArtifactName(tl, tel); err == nil {
		return tlDir, nil
	}
	return "", fmt.Errorf("-telemetry-dir %s and -timeline %s: one must hold the other, so each experiment's manifest can name every artifact (e.g. -telemetry-dir out -timeline out/tl)", telDir, tlDir)
}

// writeExpManifest digests one experiment's freshly written artifacts,
// all inside dir, into <id>.manifest.json in dir — the soradiff input (see
// DESIGN.md §15). Parallelism is deliberately absent from the params:
// artifacts are byte-identical at any -parallel setting, and the
// manifest must be too.
func writeExpManifest(dir, id string, seed uint64, scale float64, rec *telemetry.Recorder, files []string) error {
	if dir == "" || len(files) == 0 {
		return nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	absFiles := make([]string, 0, len(files))
	for _, f := range files {
		a, err := filepath.Abs(f)
		if err != nil {
			return err
		}
		absFiles = append(absFiles, a)
	}
	var counters []compare.KV
	for _, m := range rec.CounterTotals() {
		if strings.Contains(m.Name, "_bucket{") {
			// Histogram buckets live in the .metrics.prom artifact (and
			// its digest); the manifest surfaces only the closing totals.
			continue
		}
		counters = append(counters, compare.Num(m.Name, m.Value))
	}
	params := []compare.KV{
		compare.Str("exp", id),
		compare.Num("scale", scale),
	}
	m, err := compare.BuildManifest(abs, id, "sorabench", int64(seed), params, counters, absFiles)
	if err != nil {
		return err
	}
	_, err = compare.WriteManifest(abs, m)
	return err
}

// runBaselineCheck replays the pinned regression-sentinel suite
// (experiment.RunBaselineSuite) and checks — or, with update, rewrites
// — the baseline file at path. Quick mode gates only the deterministic
// "sim" metrics so CI noise can never fail the build; the full check
// also replays the kernel micro-benchmarks to cover allocation counts
// and event throughput with loose tolerances.
func runBaselineCheck(path string, workers int, quick, update bool) error {
	samples, err := experiment.RunBaselineSuite(workers)
	if err != nil {
		return err
	}
	got := make(map[string]float64, len(samples))
	for _, s := range samples {
		got[s.Name] = s.Value
	}
	var benchResults []bench.Result
	if !quick {
		benchResults = bench.Run()
		for _, r := range benchResults {
			got["bench/"+r.Name+"/allocs_per_op"] = float64(r.AllocsPerOp)
			if r.EventsPerSec > 0 {
				got["bench/"+r.Name+"/events_per_s"] = r.EventsPerSec
			}
		}
	}
	if update {
		b := &compare.Baseline{Schema: compare.BaselineSchema}
		for _, s := range samples {
			e := compare.BaselineEntry{
				Name: s.Name, Value: s.Value, Kind: compare.KindSim,
				// Sim metrics are exactly reproducible, but leave headroom
				// for deliberate algorithm changes to land with a baseline
				// refresh rather than a red build on unrelated branches.
				Tolerance: 0.02, Direction: "higher",
			}
			if strings.HasSuffix(s.Name, "p99_ms") {
				e.Tolerance, e.Direction = 0.05, "lower"
			}
			b.Entries = append(b.Entries, e)
		}
		for _, r := range benchResults {
			b.Entries = append(b.Entries, compare.BaselineEntry{
				Name:  "bench/" + r.Name + "/allocs_per_op",
				Value: float64(r.AllocsPerOp), Tolerance: 0.10,
				Direction: "lower", Kind: compare.KindAlloc,
			})
			if r.EventsPerSec > 0 {
				b.Entries = append(b.Entries, compare.BaselineEntry{
					Name:  "bench/" + r.Name + "/events_per_s",
					Value: r.EventsPerSec, Tolerance: 0.50,
					Direction: "higher", Kind: compare.KindTiming,
				})
			}
		}
		if err := compare.WriteBaseline(path, b); err != nil {
			return err
		}
		fmt.Printf("baseline updated: %d entries written to %s\n", len(b.Entries), path)
		return nil
	}
	b, err := compare.LoadBaseline(path)
	if err != nil {
		return err
	}
	violations, missing := b.Check(got, quick)
	checked := 0
	for _, e := range b.Entries {
		if !quick || e.Kind == compare.KindSim {
			checked++
		}
	}
	for _, m := range missing {
		fmt.Printf("MISSING  %s: baseline entry not produced by this run\n", m)
	}
	for _, v := range violations {
		fmt.Printf("REGRESS  %s\n", v)
	}
	if n := len(violations) + len(missing); n > 0 {
		return fmt.Errorf("baseline %s: %d of %d checks failed", path, n, checked)
	}
	mode := "full"
	if quick {
		mode = "quick"
	}
	fmt.Printf("baseline %s: %d metrics within tolerance (%s mode)\n", path, checked, mode)
	return nil
}

// writeTimeline renders one experiment's flight-recorder timeline into
// <id>.timeline.jsonl — the soradash input format.
func writeTimeline(dir, id string, rec *telemetry.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".timeline.jsonl"))
	if err != nil {
		return err
	}
	if err := rec.WriteTimeline(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProfile renders one experiment's latency attribution into
// <id>.profile.txt (blame tables) and <id>.folded (flamegraph.pl /
// tracedig input).
func writeProfile(dir, id string, p *profile.Profile) error {
	table, err := os.Create(filepath.Join(dir, id+".profile.txt"))
	if err != nil {
		return err
	}
	if err := p.WriteTable(table); err != nil {
		table.Close()
		return err
	}
	if err := table.Close(); err != nil {
		return err
	}
	folded, err := os.Create(filepath.Join(dir, id+".folded"))
	if err != nil {
		return err
	}
	if err := profile.WriteFolded(folded, p); err != nil {
		folded.Close()
		return err
	}
	return folded.Close()
}

// fmtCount renders large event counts compactly (e.g. 12.3M).
func fmtCount(n uint64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
