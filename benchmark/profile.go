package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Layer attribution of pprof samples. The layers are the simulator's
// modules under internal/; every sample is charged to exactly one of
// allLayers, so the shares sum to 1.
const (
	repoPrefix = "sora/internal/"
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// allLayers is the attribution target set: the modules a request or a
// control decision crosses, background GC, and other (the benchmark
// harness, modules off the measured path such as topology and
// telemetry, and runtime work no repository frame caused).
var allLayers = []string{
	"sim", "psq", "cluster", "core", "knee", "trace", "metrics", "stats",
	"workload", "dist", "fault", "autoscaler", "node", layerGC, layerOther,
}

// gcRoots are the runtime functions that mark a stack as background
// garbage-collector work (pprof's "runtime._GC" stands for samples taken
// while the collector held the thread without a Go stack).
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC"}

// layerOf charges one stack (innermost frame first) to a layer: the
// innermost frame that belongs to the repository decides, so runtime and
// standard-library frames such as mallocgc or sort are charged to the
// repository code that called them. Stacks with no repository frame are
// background GC when a GC worker is on them and other otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root || strings.HasPrefix(fn, root+".") {
				return layerGC
			}
		}
	}
	return layerOther
}

// repoLayer maps a symbol to its layer when the symbol is repository
// code: sora/internal/<module> functions to their module (or other for
// modules outside allLayers), the benchmark's own package to other.
func repoLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		for _, l := range allLayers {
			if l == mod {
				return l, true
			}
		}
		return layerOther, true
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "sora/benchmark.") {
		return layerOther, true
	}
	return "", false
}

// layerProfiler profiles the measured interval of every traced run and
// sums CPU time and allocated bytes per layer across them. Each run's
// CPU profile is written to dir as <name>.run<N>.cpu.pprof (go tool
// pprof merges several); <name>.allocs.pprof is the cumulative
// allocation profile after the last run. The first error stops
// profiling and is kept in err.
type layerProfiler struct {
	dir, name  string
	runs       int
	cpu, alloc map[string]float64
	base       map[string]float64 // allocation totals when the run started
	buf        bytes.Buffer
	err        error
}

func newLayerProfiler(dir, name string) *layerProfiler {
	return &layerProfiler{dir: dir, name: name, cpu: map[string]float64{}, alloc: map[string]float64{}}
}

func (p *layerProfiler) start() {
	if p.err != nil {
		return
	}
	p.base, _, p.err = allocSnapshot()
	if p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *layerProfiler) stop() {
	if p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	p.runs++
	cpu, err := layerTotals(p.buf.Bytes(), "cpu")
	if err == nil {
		err = os.WriteFile(filepath.Join(p.dir, fmt.Sprintf("%s.run%d.cpu.pprof", p.name, p.runs)), p.buf.Bytes(), 0o644)
	}
	if err != nil {
		p.err = fmt.Errorf("cpu profile: %w", err)
		return
	}
	after, raw, err := allocSnapshot()
	if err == nil {
		err = os.WriteFile(filepath.Join(p.dir, p.name+".allocs.pprof"), raw, 0o644)
	}
	if err != nil {
		p.err = fmt.Errorf("allocs profile: %w", err)
		return
	}
	for _, l := range allLayers {
		p.cpu[l] += cpu[l]
		p.alloc[l] += after[l] - p.base[l]
	}
}

// allocSnapshot returns the cumulative allocated bytes per layer and the
// raw allocs profile. The runtime publishes an allocation in the profile
// two collections after it happens, hence the two forced ones.
func allocSnapshot() (map[string]float64, []byte, error) {
	runtime.GC()
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, nil, err
	}
	totals, err := layerTotals(b.Bytes(), "alloc_space")
	return totals, b.Bytes(), err
}

// layerTotals decodes a gzip-compressed pprof profile and sums the
// sample values of the named sample type ("cpu", "alloc_space") per
// layer.
func layerTotals(raw []byte, sampleType string) (map[string]float64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q sample type", sampleType)
	}
	totals := map[string]float64{}
	var stack []string
	for _, s := range p.samples {
		if idx >= len(s.values) {
			return nil, errors.New("sample with too few values")
		}
		stack = stack[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		totals[layerOf(stack)] += float64(s.values[idx])
	}
	return totals, nil
}

// profile is the part of a pprof profile.proto message attribution
// needs: sample types, samples, locations as function-ID lists
// (innermost inlined frame first) and function names.
type profile struct {
	sampleTypes []int64 // string-table index of each type name
	samples     []sample
	locations   map[uint64][]uint64
	functions   map[uint64]int64 // function ID → name string index
	strings     []string
}

type sample struct {
	locations []uint64 // innermost first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseProfile decodes a (possibly gzip-compressed) pprof profile.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		raw, err = io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walkFields(raw, func(f field) error {
		switch f.num {
		case fProfileSampleType:
			return walkFields(f.bytes, func(g field) error {
				if g.num == fValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(g.varint))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := walkFields(f.bytes, func(g field) error {
				switch g.num {
				case fSampleLocation:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case fSampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := walkFields(f.bytes, func(g field) error {
				switch g.num {
				case fLocationID:
					id = g.varint
				case fLocationLine:
					return walkFields(g.bytes, func(h field) error {
						if h.num == fLineFunction {
							funcs = append(funcs, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(f.bytes, func(g field) error {
				switch g.num {
				case fFunctionID:
					id = g.varint
				case fFunctionName:
					name = int64(g.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// field is one decoded protobuf field: varint holds wire types 0, 1 and
// 5; bytes holds wire type 2.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// uints yields a repeated integer field, packed (wire type 2) or not.
func (f field) uints(yield func(uint64)) error {
	if f.wire != 2 {
		yield(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

var errTruncated = errors.New("profile: truncated message")

// walkFields calls fn for every field of one protobuf message.
func walkFields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			f.varint = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			f.varint = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
