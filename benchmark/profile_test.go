package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		// The innermost repository frame wins.
		{[]string{"sora/internal/psq.(*Server).reschedule", "sora/internal/cluster.(*Cluster).startVisit", "sora/internal/sim.(*Kernel).Step"}, "psq"},
		// Runtime and standard-library frames are charged to their caller.
		{[]string{"runtime.mallocgc", "runtime.newobject", "sora/internal/cluster.(*Cluster).newVisit.func1", "sora/internal/sim.(*Kernel).Step"}, "cluster"},
		{[]string{"sort.insertionSortCmpFunc[go.shape.float64]", "slices.SortFunc[...]", "sora/internal/stats.Percentile", "sora/internal/metrics.(*CompletionLog).Percentile"}, "stats"},
		// Background GC work, including samples with no Go stack.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime._GC"}, layerGC},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, layerGC},
		// GC assist inside an allocation belongs to the allocating layer.
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "sora/internal/trace.(*Warehouse).Add"}, "trace"},
		// The harness and modules outside the layer set are other.
		{[]string{"runtime.memmove", "main.(*rig).execute"}, layerOther},
		{[]string{"sora/benchmark.(*spanLog).begin"}, layerOther},
		{[]string{"sora/internal/topology.SocialNetwork", "main.buildSteady"}, layerOther},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, layerOther},
		{nil, layerOther},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64)   { b.Write(binary.AppendUvarint(nil, v)) }
func (b *pb) key(num, wire int) { b.varint(uint64(num<<3 | wire)) }
func (b *pb) uint(num int, v uint64) {
	b.key(num, 0)
	b.varint(v)
}
func (b *pb) msg(num int, m []byte) {
	b.key(num, 2)
	b.varint(uint64(len(m)))
	b.Write(m)
}
func (b *pb) packed(num int, vs ...uint64) {
	var p pb
	for _, v := range vs {
		p.varint(v)
	}
	b.msg(num, p.Bytes())
}

// syntheticProfile encodes a two-type profile with an inlined location,
// one packed and one unpacked sample.
func syntheticProfile(t *testing.T) []byte {
	var b pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"sora/internal/psq.(*Server).advance", "sora/internal/cluster.(*Cluster).startVisit",
		"runtime.gcBgMarkWorker", "main.main"} {
		b.msg(fProfileStrings, []byte(s))
	}
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.uint(fValueTypeType, vt[0])
		m.uint(2, vt[1])
		b.msg(fProfileSampleType, m.Bytes())
	}
	for _, fn := range [][2]uint64{{1, 5}, {2, 6}, {3, 7}, {4, 8}} {
		var m pb
		m.uint(fFunctionID, fn[0])
		m.uint(fFunctionName, fn[1])
		b.msg(fProfileFunction, m.Bytes())
	}
	location := func(id uint64, funcs ...uint64) {
		var m pb
		m.uint(fLocationID, id)
		for _, f := range funcs {
			var line pb
			line.uint(fLineFunction, f)
			line.uint(2, 42)
			m.msg(fLocationLine, line.Bytes())
		}
		b.msg(fProfileLocation, m.Bytes())
	}
	location(10, 1, 2) // psq inlined into cluster
	location(11, 3)
	location(12, 4)
	var s1 pb // packed: psq (inlined) ← main
	s1.packed(fSampleLocation, 10, 12)
	s1.packed(fSampleValue, 3, 30)
	b.msg(fProfileSample, s1.Bytes())
	var s2 pb // unpacked: GC worker
	s2.uint(fSampleLocation, 11)
	s2.uint(fSampleValue, 1)
	s2.uint(fSampleValue, 10)
	b.msg(fProfileSample, s2.Bytes())

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestLayerTotalsDecodesProfile(t *testing.T) {
	got, err := layerTotals(syntheticProfile(t), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if got["psq"] != 30 || got[layerGC] != 10 || len(got) != 2 {
		t.Errorf("layer totals = %v, want psq 30 (innermost inlined frame) and %s 10", got, layerGC)
	}
	if _, err := layerTotals(syntheticProfile(t), "alloc_space"); err == nil {
		t.Error("missing sample type not reported")
	}
	if _, err := layerTotals([]byte{0x12, 0x05, 0x01}, "cpu"); err == nil {
		t.Error("truncated message not reported")
	}
}

func TestPerLayerSharesSumToOne(t *testing.T) {
	cpu := map[string]float64{"sim": 5, "cluster": 7, layerGC: 3, layerOther: 1}
	alloc := map[string]float64{"cluster": 9, "trace": 2}
	st := runStats{resolved: 10, hostSec: 1}
	var cpuSum, allocSum float64
	for _, m := range perLayerMetrics([]runStats{st}, []runStats{st}, []runStats{st}, cpu, alloc, nil) {
		switch {
		case strings.HasSuffix(m.name, ".cpu_frac"):
			cpuSum += m.value
		case strings.HasSuffix(m.name, ".alloc_frac"):
			allocSum += m.value
		}
	}
	if math.Abs(cpuSum-1) > 1e-12 || math.Abs(allocSum-1) > 1e-12 {
		t.Errorf("cpu shares sum to %v, alloc shares to %v; want 1", cpuSum, allocSum)
	}
}
