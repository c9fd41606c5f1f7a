// Package kernel is the hotpath fixture: a Reset-like in-place re-key
// pinned by an AllocsPerRun benchmark, with seeded allocations both in
// the annotated root and downstream in its static call graph, plus the
// cold shapes the reachability scan must leave alone.
package kernel

import "fmt"

// Timer is the fixture's pooled struct; Reset re-keys it in place.
type Timer struct {
	at  int64
	seq uint64
	k   *Kernel
}

// Kernel owns the timer heap and the debug name table.
type Kernel struct {
	events []*Timer
	names  map[uint64]string
	hook   func()
}

// Reset is the seeded Timer.Reset twin: the closure handed to sift and
// everything sift and note allocate downstream must be flagged.
//
//soravet:hotpath fixture AllocsPerRun pin: Reset must stay zero-alloc
func (t *Timer) Reset(at int64) {
	t.at = at
	t.k.sift(func() { t.seq++ })
	t.k.note(t)
}

// sift is reachable from Reset; its own allocations are findings too.
func (k *Kernel) sift(fix func()) {
	fix()
	k.events = append(k.events, nil)
}

// note seeds fmt, string conversion, concatenation, boxing and
// container-literal allocations two hops from the root.
func (k *Kernel) note(t *Timer) {
	k.names[t.seq] = fmt.Sprintf("timer-%d", t.seq)
	b := []byte("timer")
	s := string(b) + "-hot"
	k.logv(t.seq)
	k.many(1, 2, 3)
	_ = map[string]int{s: 1}
	_ = make([]int, 4)
	_ = &Timer{}
	f := t.Stop
	_ = f
}

// logv takes an interface, so passing a concrete uint64 boxes it.
func (k *Kernel) logv(v any) { _ = v }

// many is variadic; a non-ellipsis call allocates the argument slice.
func (k *Kernel) many(xs ...int) { _ = xs }

// Stop exists to be captured as a bound method value in note.
func (t *Timer) Stop() {}

// Drain is a second root: the literal captures the loop variable, so
// each iteration allocates a distinct closure.
//
//soravet:hotpath fixture pin: Drain dispatches without allocating
func (k *Kernel) Drain() {
	for i := range k.events {
		k.defer1(func() { _ = k.events[i] })
	}
}

// defer1 parks a callback; calling it through the field is a dynamic
// call, so bodies reached only that way stay cold.
func (k *Kernel) defer1(fn func()) {
	k.hook = fn
}

// Fire invokes the parked hook dynamically; coldAlloc is reachable only
// through the hook value, which cuts the static call graph. Clean.
//
//soravet:hotpath fixture pin: dynamic calls cut the reachability scan
func (k *Kernel) Fire() {
	if k.hook != nil {
		k.hook()
	}
}

// coldAlloc is never statically reachable from a root; nothing here is
// flagged.
func coldAlloc() *Timer {
	fmt.Println("cold")
	return &Timer{}
}

// Quiet is a root with nothing to flag: plain arithmetic, indexed
// writes, and a suppressed deliberate allocation.
//
//soravet:hotpath fixture pin: the allow directive covers the one alloc
func (k *Kernel) Quiet(t *Timer) {
	t.at++
	t.seq += 2
	k.events = append(k.events, t) //soravet:allow hotpath fixture demonstrates an annotated deliberate allocation
}

var _ = coldAlloc

// ring is a generic buffer. A call to a method of one of its
// instantiations resolves to the generic declaration, so the scan
// reaches put; were it cut, the allow below would go unused.
type ring[T any] struct{ xs []T }

func (r *ring[T]) put(x T) {
	r.xs = append(r.xs, x) //soravet:allow hotpath fixture demonstrates an allocation reached through a generic instantiation
}

// Record is a root whose only allocation sits in a generic method.
//
//soravet:hotpath fixture pin: calls into generic instantiations are followed
func (k *Kernel) Record(r *ring[int], v int) {
	r.put(v)
}

// edge names a caller→callee pair; its fields make it a string-bearing
// map key.
type edge struct {
	from, to string
}

// Directory resolves names: by pod name, by edge, and by a numeric id.
type Directory struct {
	pods  map[string]int
	edges map[edge]int
	ids   map[uint64]int
	slots [][2]int
}

// Route is a root that hashes names per call: the string and the
// string-bearing struct keys are flagged, wherever the index sits; the
// integer key, a slice index, and an allowed name lookup are not.
//
//soravet:hotpath fixture pin: Route must not hash a name per call
func (d *Directory) Route(pod, from, to string, id uint64) int {
	n := d.pods[pod]
	if v, ok := d.edges[edge{from, to}]; ok {
		n += v
	}
	d.pods[pod] = n
	n += d.ids[id] + d.slots[id][0]
	n += d.pods["fallback"] //soravet:allow hotpath fixture demonstrates an annotated name-keyed fallback
	return n
}
