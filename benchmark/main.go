// Command benchmark is the simulator's end-to-end benchmark: it runs the
// four paper workloads (steady, drift, chaos, ctrlplane) from the public
// layer APIs and prints host throughput, set-up time, memory and
// allocation per request, and the simulated outputs that a pure speed-up
// must leave unchanged. With -trace 1 it instead runs the same workloads
// under a CPU and allocation profile, charges every sample to a layer
// (one per internal/ module), times the layer probes, and prints the
// per-layer metrics. See README.md.
//
// Usage:
//
//	go run . [-workload all|steady|drift|chaos|ctrlplane] [-seed N]
//	         [-seconds S] [-trace 0|1] [-trace-dir DIR] [-quick]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sora/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	quick    bool
}

// defaultSeconds is the measurement budget of one workload (BENCHMARK.json's
// run_seconds).
const defaultSeconds = 20

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, steady, drift, chaos or ctrlplane")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed (must be positive)")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "host seconds of repeated runs to measure per workload")
	trace := fs.String("trace", "0", "1 runs the traced run and prints the per-layer metrics; 0 the timed run")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for the traced run's profiles and spans.jsonl")
	fs.BoolVar(&o.quick, "quick", false, "40 virtual seconds per workload, one run, minimal probes (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *trace {
	case "0":
	case "1":
		o.trace = true
	default:
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %q\n", *trace)
		return 2
	}
	if o.seed == 0 || o.seconds < 0 || math.IsNaN(o.seconds) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seed must be positive, -seconds non-negative, and no positional arguments")
		return 2
	}
	var todo []scenario
	if o.workload == "all" {
		todo = scenarios
	} else if sc, ok := scenarioByName(o.workload); ok {
		todo = []scenario{sc}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want all, steady, drift, chaos or ctrlplane)\n", o.workload)
		return 2
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# machine: cpu=%q gomaxprocs=%d go=%s\n", cpuModel(), runtime.GOMAXPROCS(0), runtime.Version())

	var spans *spanLog
	if o.trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		spans = newSpanLog()
	}
	report := jsonReport{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, sc := range todo {
		res, err := runWorkload(sc, o, spans, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sc.name, err)
			return 1
		}
		for _, m := range res.metrics {
			fmt.Fprintf(out, "%-10s %-32s %16.6g %s%s\n", sc.name, m.name, m.value, m.unit, m.note)
			key := m.name
			if len(todo) > 1 {
				key = sc.name + "." + m.name
			}
			report.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		fmt.Fprintf(out, "%-10s ops %d failed_ops %d\n", sc.name, res.ops, len(res.failures))
		for _, f := range res.failures {
			fmt.Fprintf(out, "%-10s FAILED: %s\n", sc.name, f)
		}
		report.Attempted += res.ops
		report.Failed += len(res.failures)
		runtime.GC()
	}
	if spans != nil {
		if err := spans.write(filepath.Join(o.traceDir, "spans.jsonl")); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	report.Correct = report.Failed == 0
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !report.Correct {
		return 1
	}
	return 0
}

// jsonReport is the result line.
type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValue is one printed metric; note carries optional context
// such as a probe's sample count.
type metricValue struct {
	name  string
	value float64
	unit  string
	note  string
}

// workloadResult is one workload's metrics and its correctness record.
// Every run is one operation; failures lists why runs failed.
type workloadResult struct {
	metrics  []metricValue
	ops      int
	failures []string
}

// seedsPerBlock is how many kernel seeds one invocation cycles through:
// -seed N owns the block of seeds [(N-1)·k+1, N·k], run i simulates the
// block's seed i mod k, and the sim_* metrics pool the whole block.
// Fault victims and controller decisions make single-seed outcomes vary
// by several percent; pooling eight seeds keeps that spread well inside
// the metric bounds.
const seedsPerBlock = 8

// setupsPerRun is how many rigs are built and timed before every run.
// Spreading the set-up samples over the whole measurement keeps machine
// drift from biasing their median.
const setupsPerRun = 100

// refNominal is the yardstick speed, in host ns per reference event,
// that setup_s is scaled to: each set-up sample is multiplied by
// refNominal over the yardstick reading taken just before it. Across
// invocations set-up times track the yardstick closely (correlation 0.8
// to 0.95 on a 2-vCPU Xeon VM, whose readings sit near 250 ns), so the
// scaling removes most of the machine's speed drift while keeping
// setup_s close to raw seconds there.
const refNominal = 250.0

// blockSeed is the kernel seed of run i of -seed seed with a k-seed block.
func blockSeed(seed uint64, k, i int) uint64 { return (seed-1)*uint64(k) + uint64(i%k) + 1 }

// measurer runs one workload repeatedly and checks every run.
type measurer struct {
	sc       scenario
	seed     uint64
	dur      time.Duration
	seeds    int // seeds in the block
	yard     int // events per yardstick sample
	progress io.Writer

	setupSec []float64
	digests  map[uint64]uint64 // kernel seed → digest of its first run
	res      workloadResult
}

// runs executes at least minRuns runs, then more until budget host
// seconds have passed, timing setups rig constructions before each.
func (m *measurer) runs(minRuns int, budget float64, setups int, tr *tracer) ([]runStats, error) {
	var out []runStats
	runtime.GC()
	ref := yardstick(m.yard)
	start := time.Now()                                                           //soravet:allow wallclock the measurement budget is host time
	for i := 0; len(out) < minRuns || time.Since(start).Seconds() < budget; i++ { //soravet:allow wallclock the measurement budget is host time
		seed := blockSeed(m.seed, m.seeds, i)
		for j := 0; j < setups; j++ {
			t0 := time.Now() //soravet:allow wallclock set-up time is a host-time metric
			if _, err := m.sc.build(seed, m.dur); err != nil {
				return nil, err
			}
			m.setupSec = append(m.setupSec, time.Since(t0).Seconds()*refNominal/ref) //soravet:allow wallclock set-up time is a host-time metric
		}
		r, err := m.sc.build(seed, m.dur)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if tr != nil {
			tr.run = tr.spans.begin(fmt.Sprintf("%s/seed-%d", m.sc.name, seed), tr.root)
		}
		st := r.execute(m.dur, m.sc.warm, tr)
		if tr != nil {
			tr.spans.end(tr.run)
		}
		// The rig is garbage now: collect it so the yardstick runs on a
		// small heap, whatever the workload left behind.
		runtime.GC()
		next := yardstick(m.yard)
		st.refNs, ref = (ref+next)/2, next
		m.res.ops++
		fmt.Fprintf(m.progress, "%s run %d (kernel seed %d): %.3f s host, %.0f req/s, %.3f req/kref, ref %.1f ns/event\n",
			m.sc.name, m.res.ops, seed, st.hostSec, reqPerSec(st), reqPerKref(st), st.refNs)
		want, seen := m.digests[seed]
		if !seen {
			m.digests[seed] = st.digest
		}
		if why := st.check(want); why != "" {
			m.res.failures = append(m.res.failures, fmt.Sprintf("run %d (kernel seed %d): %s", m.res.ops, seed, why))
		}
		out = append(out, st)
	}
	return out, nil
}

// runWorkload measures one workload: the timed runs with set-up samples
// interleaved, and with -trace the traced runs and the layer probes.
func runWorkload(sc scenario, o options, spans *spanLog, progress io.Writer) (*workloadResult, error) {
	m := &measurer{
		sc: sc, seed: o.seed, dur: sc.dur, seeds: seedsPerBlock, yard: yardEvents,
		progress: progress, digests: map[uint64]uint64{},
	}
	setups, budget := setupsPerRun, o.seconds
	if o.quick {
		m.dur, m.seeds, m.yard, setups, budget = quickDuration, 1, yardEvents/10, 5, 0
	}
	timed, err := m.runs(m.seeds, budget, setups, nil)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		m.res.metrics = endToEndMetrics(timed[:m.seeds], timed, m.setupSec)
		return &m.res, nil
	}

	// The traced runs: the same block of seeds from its start, for half
	// the budget, with spans and the layer profiler on.
	tr := &tracer{spans: spans, root: spans.begin("traced/"+sc.name, 0), prof: newLayerProfiler(o.traceDir, sc.name)}
	traced, err := m.runs(1, budget/2, 0, tr)
	spans.end(tr.root)
	if err != nil {
		return nil, err
	}
	if tr.prof.err != nil {
		return nil, tr.prof.err
	}
	probes, err := runProbes(o.quick, spans)
	if err != nil {
		return nil, err
	}
	m.res.metrics = perLayerMetrics(timed[:m.seeds], timed, traced, tr.prof.cpu, tr.prof.alloc, probes)
	return &m.res, nil
}

// medianOf returns the median of f over runs.
func medianOf(runs []runStats, f func(st runStats) float64) float64 {
	vs := make([]float64, len(runs))
	for i, st := range runs {
		vs[i] = f(st)
	}
	return median(vs)
}

func reqPerSec(st runStats) float64 { return float64(st.resolved) / st.hostSec }

// one and resolved are pooled denominators: per run and per request.
func one(runStats) float64 { return 1 }

func resolved(st runStats) float64 { return float64(st.resolved) }

// reqPerKref is throughput in machine-independent form: requests
// resolved in the host time the reference kernel takes for 1000 events.
func reqPerKref(st runStats) float64 { return reqPerSec(st) * st.refNs * 1e-6 }

// pooled sums two counts over the block's runs and returns their ratio.
func pooled(block []runStats, num, den func(st runStats) float64) float64 {
	n, d := 0.0, 0.0
	for _, st := range block {
		n += num(st)
		d += den(st)
	}
	return n / d
}

// endToEndMetrics summarizes the timed runs. Throughput is the median
// over every run; set-up time the median over every set-up sample. The
// memory, allocation and sim_* metrics are exact per seed up to runtime
// bookkeeping (repeats of a seed agree, which the digest check enforces
// for the simulated outputs), so they pool the block's seeds, one run
// each.
func endToEndMetrics(block, runs []runStats, setupSec []float64) []metricValue {
	n := fmt.Sprintf("  (median of %d runs)", len(runs))
	seeds := fmt.Sprintf("  (%d seeds)", len(block))
	return []metricValue{
		{"req_per_kref", medianOf(runs, reqPerKref), "req/kref", n},
		{"setup_s", median(setupSec), "s", fmt.Sprintf("  (median of %d set-ups)", len(setupSec))},
		{"peak_heap_mb", pooled(block, func(st runStats) float64 { return float64(st.peakHeap) / 1e6 }, one), "MB", seeds + ", mean"},
		{"alloc_bytes_per_req", pooled(block, func(st runStats) float64 { return float64(st.allocBytes) }, resolved), "B", seeds},
		{"allocs_per_req", pooled(block, func(st runStats) float64 { return float64(st.allocObjects) }, resolved), "objects", seeds},
		{"sim_p99_ms", pooled(block, func(st runStats) float64 { return float64(st.p99) / 1e6 }, one), "ms", seeds + ", mean"},
		{"sim_good_frac", pooled(block, func(st runStats) float64 { return float64(st.good) }, func(st runStats) float64 { return float64(st.resolvedWarm) }), "fraction", seeds},
		{"sim_ok_frac", pooled(block, func(st runStats) float64 { return float64(st.completed) }, resolved), "fraction", seeds},
	}
}

// perLayerMetrics assembles the traced run's output: profile shares per
// layer, the exact counts of the timed runs, the layer probes and the
// tracing overhead.
func perLayerMetrics(block, timed, traced []runStats, cpu, alloc map[string]float64, probes []metricValue) []metricValue {
	var out []metricValue
	cpuTotal, allocTotal := 0.0, 0.0
	for _, l := range allLayers {
		cpuTotal += cpu[l]
		allocTotal += alloc[l]
	}
	for _, l := range allLayers {
		out = append(out, metricValue{l + ".cpu_frac", share(cpu[l], cpuTotal), "fraction", ""})
		if l != layerGC {
			out = append(out, metricValue{l + ".alloc_frac", share(alloc[l], allocTotal), "fraction", ""})
		}
	}
	perK := func(f func(st runStats) uint64) float64 {
		return 1000 * pooled(block, func(st runStats) float64 { return float64(f(st)) }, resolved)
	}
	maxOf := func(f func(st runStats) int) float64 {
		m := 0
		for _, st := range block {
			m = max(m, f(st))
		}
		return float64(m)
	}
	out = append(out,
		metricValue{"sim.events_per_req", pooled(block, func(st runStats) float64 { return float64(st.events) }, resolved), "events", ""},
		metricValue{"sim.pending_max", maxOf(func(st runStats) int { return st.pendingMax }), "events", ""},
		metricValue{"cluster.retries_per_kreq", perK(func(st runStats) uint64 { return st.retries }), "count", ""},
		metricValue{"cluster.timeouts_per_kreq", perK(func(st runStats) uint64 { return st.timedOut }), "count", ""},
		metricValue{"cluster.refused_per_kreq", perK(func(st runStats) uint64 { return st.refused }), "count", ""},
		metricValue{"cluster.breaker_rejects_per_kreq", perK(func(st runStats) uint64 { return st.rejected }), "count", ""},
		metricValue{"core.decisions", pooled(block, func(st runStats) float64 { return float64(st.decisions) }, one), "count", "  (mean per run)"},
		metricValue{"core.model_errors", pooled(block, func(st runStats) float64 { return float64(st.modelErrors) }, one), "count", "  (mean per run)"},
		metricValue{"trace.warehouse_max", maxOf(func(st runStats) int { return st.warehouseMax }), "traces", ""},
		metricValue{"trace.spans_per_req", pooled(traced, func(st runStats) float64 { return float64(st.spans) }, resolved), "spans", ""},
		metricValue{"node.pending_pods_max", maxOf(func(st runStats) int { return st.nodePendingMax }), "pods", ""},
	)
	out = append(out, metricValue{"trace_overhead_frac", 1 - medianOf(traced, reqPerKref)/medianOf(timed, reqPerKref), "fraction", ""})
	out = append(out, probes...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func share(v, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return v / total
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	m, err := stats.Percentile(xs, 50)
	if err != nil {
		return math.NaN()
	}
	return m
}

// cpuModel reads the CPU model name for the machine fingerprint.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
