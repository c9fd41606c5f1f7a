package trace

import (
	"slices"
	"time"

	"sora/internal/sim"
)

// Warehouse is the in-memory trace store the Concurrency Estimator pulls
// from. It keeps completed traces for a bounded retention window of
// virtual time and evicts older ones lazily on Add. Traces are appended
// in completion order, so eviction and range queries are simple
// prefix/suffix operations on a deque.
//
// The paper offloads this role to a Neo4j graph database plus per-service
// MongoDB stores; an indexed in-process deque answers the one query the
// estimator makes (the traces completing in a window) without the
// storage substrate.
type Warehouse struct {
	retention time.Duration
	traces    []*Trace // completion-ordered; traces[head] is oldest
	head      int      // logical start; eviction advances it (amortized compaction)
	added     uint64
	evicted   uint64
	// unsettled holds the ascending sequence numbers of retained traces
	// stored with AddUnsettled; eviction drops its prefix with the deque's.
	unsettled []uint64
}

// DefaultRetention bounds warehouse memory when the caller does not
// specify a window. Three minutes matches the longest metrics-collection
// window used by the SCG model.
const DefaultRetention = 3 * time.Minute

// NewWarehouse returns a warehouse retaining traces whose completion time
// is within the given window of the most recent Add. A non-positive
// retention selects DefaultRetention.
func NewWarehouse(retention time.Duration) *Warehouse {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Warehouse{retention: retention}
}

// Retention returns the configured retention window.
func (w *Warehouse) Retention() time.Duration { return w.retention }

// Add stores a completed trace and evicts any traces that have fallen out
// of the retention window relative to this trace's completion time.
// Traces must be added in nondecreasing completion order (the simulator
// guarantees this).
func (w *Warehouse) Add(t *Trace) { w.add(t, false) }

// AddUnsettled stores a completed trace that may still change: a call
// under it timed out and the orphaned callee may yet append spans to it
// or stamp the ones it has. Readers that cache what they derive from
// traces must reread these; see Unsettled.
func (w *Warehouse) AddUnsettled(t *Trace) { w.add(t, true) }

func (w *Warehouse) add(t *Trace, unsettled bool) {
	if t == nil || (t.Root == nil && t.enc == nil) {
		return
	}
	if unsettled {
		w.unsettled = append(w.unsettled, w.added)
	}
	w.traces = append(w.traces, t)
	w.added++
	w.evictBefore(t.CompletedAt() - w.retention)
}

// evictBefore drops the traces completing before cutoff. Its one caller
// is add, whose cutoff lies a positive retention before the trace it just
// stored, so that trace always survives and the deque never empties.
func (w *Warehouse) evictBefore(cutoff sim.Time) {
	i := w.head
	for i < len(w.traces) && w.traces[i].CompletedAt() < cutoff {
		w.traces[i] = nil // unpin for GC immediately
		i++
	}
	if i == w.head {
		return
	}
	w.evicted += uint64(i - w.head)
	w.head = i
	n := 0
	for n < len(w.unsettled) && w.unsettled[n] < w.evicted {
		n++
	}
	w.unsettled = w.unsettled[n:]
	// Amortized compaction: only shift the surviving suffix once the dead
	// prefix dominates, keeping per-Add eviction O(1) amortized.
	if w.head > len(w.traces)/2 && w.head > 1024 {
		remaining := len(w.traces) - w.head
		copy(w.traces, w.traces[w.head:])
		for j := remaining; j < len(w.traces); j++ {
			w.traces[j] = nil
		}
		w.traces = w.traces[:remaining]
		w.head = 0
	}
}

// live returns the retained slice view.
func (w *Warehouse) live() []*Trace { return w.traces[w.head:] }

// Len returns the number of retained traces.
func (w *Warehouse) Len() int { return len(w.traces) - w.head }

// Added returns the total number of traces ever stored.
//
//soravet:allow deadcode (b) cross-package observer: core scan tests observe the warehouse add count through it
func (w *Warehouse) Added() uint64 { return w.added }

// WarehouseStats is a point-in-time summary of warehouse churn, exposed
// for telemetry counters and capacity diagnostics.
type WarehouseStats struct {
	Added    uint64 // traces ever stored
	Evicted  uint64 // traces dropped out of the retention window
	Retained int    // traces currently held
}

// Stats returns the warehouse's churn counters and current size.
func (w *Warehouse) Stats() WarehouseStats {
	return WarehouseStats{Added: w.added, Evicted: w.evicted, Retained: w.Len()}
}

// Window returns the retained traces whose completion time lies in
// [since, until). The result aliases the warehouse's internal order but is
// a fresh slice; callers may not mutate the traces.
func (w *Warehouse) Window(since, until sim.Time) []*Trace {
	view, _ := w.View(since, until)
	if len(view) == 0 {
		return nil
	}
	return append([]*Trace(nil), view...)
}

// View is Window without the copy: it returns the retained traces
// completing in [since, until) as a read-only view of the deque, plus
// the sequence number of the first of them (the i-th has first+i). The
// view is valid until the next Add or AddUnsettled.
func (w *Warehouse) View(since, until sim.Time) (traces []*Trace, first uint64) {
	live := w.live()
	lo := lowerBound(live, since)
	hi := lowerBound(live, until)
	if lo >= hi {
		return nil, w.evicted + uint64(lo)
	}
	return live[lo:hi:hi], w.evicted + uint64(lo)
}

// Unsettled returns, in ascending order, the sequence numbers in
// [lo, hi) of retained traces stored with AddUnsettled. The result is a
// read-only view, valid until the next Add or AddUnsettled.
func (w *Warehouse) Unsettled(lo, hi uint64) []uint64 {
	u := w.unsettled
	i, _ := slices.BinarySearch(u, lo)
	j, _ := slices.BinarySearch(u, hi)
	return u[i:j:j]
}

// All returns every retained trace in completion order.
func (w *Warehouse) All() []*Trace {
	live := w.live()
	out := make([]*Trace, len(live))
	copy(out, live)
	return out
}

// lowerBound returns the index of the first trace completing at or after t.
func lowerBound(traces []*Trace, t sim.Time) int {
	lo, hi := 0, len(traces)
	for lo < hi {
		mid := (lo + hi) / 2
		if traces[mid].CompletedAt() < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
