package experiment

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/telemetry"
)

// This file is the parallel execution layer of the experiment package.
//
// Every runnable unit in the reproduction — a sweep point, a strategy run,
// a validation cell, a whole figure — builds its own sim.Kernel, cluster
// and workload, and shares no mutable state with its siblings. That makes
// fan-out embarrassingly parallel: parMap executes the units on a bounded
// worker pool and collects results into index-ordered slices, so the
// printed output is bit-for-bit identical to a serial run of the same
// seeds no matter how many workers raced.
//
// Nested fan-out (an experiment running a parallel sweep inside RunMany)
// multiplies goroutine counts but not CPU use — the Go scheduler bounds
// execution at GOMAXPROCS — so inner levels stay simple instead of
// threading a shared semaphore through every call site.

// Workers resolves the Params.Parallelism knob: 0 (or negative) selects
// GOMAXPROCS, 1 forces serial execution, anything else is the explicit
// worker count.
func (p Params) Workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parMap runs fn(i) for every i in [0,n) on at most p.Workers() goroutines
// and returns the results in index order. If any calls fail, the error of
// the lowest failing index is returned (with the partial results), keeping
// error reporting deterministic under arbitrary scheduling.
func parMap[T any](p Params, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	errs := make([]error, n)
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// parDo runs the given independent closures on the worker pool and returns
// the error of the lowest-indexed failure.
func parDo(p Params, fns ...func() error) error {
	_, err := parMap(p, len(fns), func(i int) (struct{}, error) {
		return struct{}{}, fns[i]()
	})
	return err
}

// runTally aggregates simulation activity across every kernel the package
// runs, so callers can report event throughput alongside wall time.
var runTally struct {
	runs   atomic.Uint64
	events atomic.Uint64
}

// noteKernelRun records a finished kernel's event count in the global
// tally. execute calls it after the post-run drain.
func noteKernelRun(k *sim.Kernel) {
	runTally.runs.Add(1)
	runTally.events.Add(k.Processed())
}

// ResetRunStats zeroes the global simulation tally.
func ResetRunStats() {
	runTally.runs.Store(0)
	runTally.events.Store(0)
}

// RunStats returns the number of completed simulation runs and the total
// simulation events processed since the last ResetRunStats.
func RunStats() (runs, events uint64) {
	return runTally.runs.Load(), runTally.events.Load()
}

// RunResult is the outcome of one experiment executed by RunMany.
type RunResult struct {
	Experiment Experiment
	// Output is everything the experiment wrote to its writer. Buffering
	// per experiment keeps stdout deterministic when experiments run
	// concurrently.
	Output string
	Err    error
	// Wall is the experiment's wall-clock duration; Events is the number
	// of simulation events its kernels processed (approximate when other
	// experiments run concurrently — attribution is by tally delta).
	Wall   time.Duration
	Events uint64
}

// ProgressEvent reports one experiment's lifecycle transition to a
// RunMany progress observer.
type ProgressEvent struct {
	Index, Total int
	Experiment   Experiment
	// Done is false when the experiment starts, true when it finishes
	// (Err and Wall are only meaningful then).
	Done bool
	Err  error
	Wall time.Duration
}

// runOptions collects the optional behaviours of RunMany.
type runOptions struct {
	recorder func(i int, e Experiment) *telemetry.Recorder
	profiler func(i int, e Experiment) *profile.Aggregator
	progress func(ProgressEvent)
}

// RunOption customizes RunMany.
type RunOption func(*runOptions)

// WithRecorders gives every experiment its own telemetry root: fn is
// called once per experiment (from the worker about to run it) and the
// returned recorder becomes that run's Params.Telemetry.
func WithRecorders(fn func(i int, e Experiment) *telemetry.Recorder) RunOption {
	return func(o *runOptions) { o.recorder = fn }
}

// WithProfiles gives every experiment its own latency-attribution
// aggregator: fn is called once per experiment and the returned
// aggregator becomes that run's Params.Profile, collecting blame from
// every trace the experiment's clusters complete.
func WithProfiles(fn func(i int, e Experiment) *profile.Aggregator) RunOption {
	return func(o *runOptions) { o.profiler = fn }
}

// WithProgress registers a live observer called at every experiment
// start and finish. Calls are serialized by an internal mutex, so fn
// may write to a shared stream (stderr) without interleaving.
func WithProgress(fn func(ProgressEvent)) RunOption {
	return func(o *runOptions) { o.progress = fn }
}

// RunMany executes the experiments on the worker pool, each writing into
// its own buffer, and returns results in input order. All experiments run
// to completion even if some fail; callers decide how to surface errors.
func RunMany(p Params, exps []Experiment, opts ...RunOption) []RunResult {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	var progressMu sync.Mutex
	notify := func(ev ProgressEvent) {
		if o.progress == nil {
			return
		}
		progressMu.Lock()
		o.progress(ev)
		progressMu.Unlock()
	}
	results, _ := parMap(p, len(exps), func(i int) (RunResult, error) {
		e := exps[i]
		pe := p
		if o.recorder != nil {
			pe.Telemetry = o.recorder(i, e)
		}
		if o.profiler != nil {
			pe.Profile = o.profiler(i, e)
		}
		var buf bytes.Buffer
		_, eventsBefore := RunStats()
		notify(ProgressEvent{Index: i, Total: len(exps), Experiment: e})
		start := time.Now() //soravet:allow wallclock progress reporting measures real per-experiment wall time
		err := e.Run(pe, &buf)
		wall := time.Since(start) //soravet:allow wallclock progress reporting measures real per-experiment wall time
		notify(ProgressEvent{Index: i, Total: len(exps), Experiment: e, Done: true, Err: err, Wall: wall})
		_, eventsAfter := RunStats()
		return RunResult{
			Experiment: e,
			Output:     buf.String(),
			Err:        err,
			Wall:       wall,
			Events:     eventsAfter - eventsBefore,
		}, nil
	})
	return results
}
