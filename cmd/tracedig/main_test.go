package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/trace"
)

// simulate runs a short Sock Shop burst and returns the completed traces.
func simulate(t *testing.T, seed uint64, n int) []*trace.Trace {
	t.Helper()
	k := sim.NewKernel(seed)
	c, err := cluster.New(k, topology.SockShop(topology.DefaultSockShop()), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var traces []*trace.Trace
	c.OnComplete(func(tr *trace.Trace) { traces = append(traces, tr.Retain()) })
	for i := 0; i < n; i++ {
		k.Schedule(time.Duration(i/4)*time.Millisecond, c.SubmitMix)
	}
	k.Run()
	if len(traces) == 0 {
		t.Fatal("no traces completed")
	}
	return traces
}

// TestArchiveReproducesInProcessProfile is the offline-equals-online
// golden guarantee: analyzing an exported archive yields byte-for-byte
// the same blame table the in-process profiler produces.
func TestArchiveReproducesInProcessProfile(t *testing.T) {
	traces := simulate(t, 97, 300)
	slo := 40 * time.Millisecond

	agg := profile.NewAggregator(slo)
	agg.AddAll(traces)
	var want bytes.Buffer
	if err := agg.Snapshot().WriteTable(&want); err != nil {
		t.Fatal(err)
	}

	archive := filepath.Join(t.TempDir(), "run.traces.jsonl")
	f, err := os.Create(archive)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ExportAll(f, traces); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := analyze([]string{archive}, slo)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := p.WriteTable(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("offline profile differs from in-process profile:\n--- in-process ---\n%s--- offline ---\n%s",
			want.String(), got.String())
	}
}

// TestFoldedOutputIsValid: the -folded file parses back and every stack
// ends in a known phase with a positive value.
func TestFoldedOutputIsValid(t *testing.T) {
	traces := simulate(t, 101, 200)
	archive := filepath.Join(t.TempDir(), "run.traces.jsonl")
	f, err := os.Create(archive)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ExportAll(f, traces); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err := analyze([]string{archive}, 0)
	if err != nil {
		t.Fatal(err)
	}
	foldedPath := filepath.Join(t.TempDir(), "run.folded")
	out, err := os.Create(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.WriteFolded(out, p); err != nil {
		t.Fatal(err)
	}
	out.Close()

	in, err := os.Open(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	lines, err := profile.ReadFolded(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("folded file is empty")
	}
	for _, l := range lines {
		frames := strings.Split(l.Stack, ";")
		if _, ok := profile.PhaseByName(frames[len(frames)-1]); !ok {
			t.Errorf("stack %q does not end in a phase", l.Stack)
		}
		if l.Dur <= 0 {
			t.Errorf("stack %q has non-positive value %v", l.Stack, l.Dur)
		}
	}
	// And the folded file itself is analyzable.
	p2, err := analyze([]string{foldedPath}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Services) == 0 {
		t.Error("folded analysis found no services")
	}
}

func TestAnalyzeRejectsMixedInputs(t *testing.T) {
	if _, err := analyze([]string{"a.jsonl", "b.folded"}, 0); err == nil {
		t.Error("mixed inputs: expected error")
	}
	if _, err := analyze([]string{"b.folded"}, time.Second); err == nil {
		t.Error("-slo with folded input: expected error")
	}
	if _, err := analyze([]string{"missing.jsonl"}, 0); err == nil {
		t.Error("missing file: expected error")
	}
}
