package experiment

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		p := Params{Parallelism: workers}
		out, err := parMap(p, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestParMapDeterministicError(t *testing.T) {
	// Multiple failures: the lowest-indexed error must win regardless of
	// scheduling.
	for _, workers := range []int{1, 4} {
		p := Params{Parallelism: workers}
		_, err := parMap(p, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Errorf("workers=%d: err = %v, want item 7 failed", workers, err)
		}
	}
}

func TestParMapEmpty(t *testing.T) {
	out, err := parMap(Params{}, 0, func(i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || len(out) != 0 {
		t.Errorf("empty parMap = (%v, %v)", out, err)
	}
}

func TestParDo(t *testing.T) {
	var a, b bool
	err := parDo(Params{Parallelism: 2},
		func() error { a = true; return nil },
		func() error { b = true; return nil },
	)
	if err != nil || !a || !b {
		t.Errorf("parDo: err=%v a=%v b=%v", err, a, b)
	}
	err = parDo(Params{Parallelism: 2},
		func() error { return errors.New("first") },
		func() error { return errors.New("second") },
	)
	if err == nil || err.Error() != "first" {
		t.Errorf("parDo error = %v, want first", err)
	}
}

func TestWorkers(t *testing.T) {
	if (Params{Parallelism: 1}).Workers() != 1 {
		t.Error("Parallelism 1 must force serial")
	}
	if (Params{Parallelism: 7}).Workers() != 7 {
		t.Error("explicit Parallelism not honored")
	}
	if (Params{}).Workers() < 1 {
		t.Error("default Workers must be at least 1")
	}
}

// TestSweepSerialParallelEquivalence is the guardrail for the parallel
// runner: one sweep executed serially and on a multi-worker pool must
// produce identical sweepPoint slices for the same seed — every field,
// bit for bit.
func TestSweepSerialParallelEquivalence(t *testing.T) {
	sizes := []int{3, 10, 30}
	thresholds := []time.Duration{fig3LooseRTT}
	run := func(parallelism int) []sweepPoint {
		t.Helper()
		p := Params{Seed: 7, DurationScale: 0.001, Quiet: true, Parallelism: parallelism}
		points, err := runSweep(p, cartSweep(2, 200), sizes, thresholds, "cart")
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		return points
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel sweeps diverge:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != len(sizes) {
		t.Fatalf("got %d points, want %d", len(serial), len(sizes))
	}
	for i, pt := range serial {
		if pt.size != sizes[i] {
			t.Errorf("point %d has size %d, want %d (order not preserved)", i, pt.size, sizes[i])
		}
	}
}

// TestRunManyOrderAndIsolation checks that concurrently executed
// experiments keep their output separated and ordered.
func TestRunManyOrderAndIsolation(t *testing.T) {
	var exps []Experiment
	for i := 0; i < 8; i++ {
		i := i
		exps = append(exps, Experiment{
			ID:    fmt.Sprintf("t%d", i),
			Title: "test",
			Run: func(p Params, w io.Writer) error {
				for line := 0; line < 50; line++ {
					fmt.Fprintf(w, "exp%d line%d\n", i, line)
				}
				if i == 3 {
					return errors.New("planned failure")
				}
				return nil
			},
		})
	}
	results := RunMany(Params{Parallelism: 4}, exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results, want %d", len(results), len(exps))
	}
	for i, res := range results {
		if res.Experiment.ID != fmt.Sprintf("t%d", i) {
			t.Errorf("result %d is %s, want t%d (order not preserved)", i, res.Experiment.ID, i)
		}
		if i == 3 {
			if res.Err == nil {
				t.Error("planned failure not reported")
			}
		} else if res.Err != nil {
			t.Errorf("t%d failed: %v", i, res.Err)
		}
		want := fmt.Sprintf("exp%d line0\n", i)
		if !strings.HasPrefix(res.Output, want) || strings.Contains(res.Output, fmt.Sprintf("exp%d", (i+1)%8)) {
			t.Errorf("t%d output interleaved or misattributed:\n%s", i, res.Output[:min(len(res.Output), 200)])
		}
	}
}

// TestExperimentOutputEquivalence runs full experiment drivers serially
// and on a multi-worker pool and requires byte-identical output — the
// package-level form of the cmd/sorabench -parallel N vs -parallel 1 guarantee.
func TestExperimentOutputEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-driver equivalence runs take ~a minute; skipped in -short")
	}
	for _, id := range []string{"fig4", "fig10"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(parallelism int) string {
				var sb strings.Builder
				p := Params{Seed: 11, DurationScale: 0.001, Quiet: true, Parallelism: parallelism}
				if err := e.Run(p, &sb); err != nil {
					t.Fatalf("parallelism=%d: %v", parallelism, err)
				}
				return sb.String()
			}
			serial := render(1)
			parallel := render(4)
			if serial != parallel {
				t.Fatalf("%s output differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
			}
		})
	}
}

func TestRunStatsAccumulate(t *testing.T) {
	ResetRunStats()
	p := Params{Seed: 3, DurationScale: 0.001, Quiet: true, Parallelism: 2}
	if _, err := runSweep(p, cartSweep(2, 100), []int{5, 10}, []time.Duration{fig3LooseRTT}, ""); err != nil {
		t.Fatal(err)
	}
	runs, events := RunStats()
	if runs != 2 {
		t.Errorf("RunStats runs = %d, want 2", runs)
	}
	if events == 0 {
		t.Error("RunStats events = 0, want > 0")
	}
}
