package metrics

import "sort"

// blockSize is the record count of one Series block. A Point is 16 B,
// so a block is 16 KiB, under the runtime's 32 KiB large-object
// threshold: a block is an ordinary size-classed allocation rather than
// a fresh, zeroed large span. A power of two keeps the index split a
// shift and a mask.
const blockSize = 1024

// blockLog is the storage behind Series: records in
// append order, held in fixed-size blocks. An append writes into the
// tail block and never moves a record. Dropping a prefix advances head
// and retires whole dead blocks to a free list; the survivors are never
// copied down. The free list holds at most as many blocks as the log
// keeps live, so a log that shrinks returns the rest to the heap.
//
// An append touches only the fields up to newest: the tail block is
// cached beside the counts and the newest record is kept by value, so
// the order check and the write need no directory lookup and no read of
// a tail record evicted since the previous append.
type blockLog[T any] struct {
	tail   *[blockSize]T   // blocks[len(blocks)-1], nil when there are none
	head   int             // position of the oldest record in blocks[0]
	n      int             // live records
	newest T               // the last record pushed; meaningful while n > 0
	blocks []*[blockSize]T // live blocks, oldest first
	free   []*[blockSize]T // retired blocks awaiting reuse
}

// at returns the i-th live record, 0 being the oldest.
func (l *blockLog[T]) at(i int) T {
	j := uint(l.head + i)
	return l.blocks[j/blockSize][j%blockSize]
}

// last returns the newest record and true, or the zero T and false when
// the log is empty.
func (l *blockLog[T]) last() (T, bool) {
	if l.n == 0 {
		var zero T
		return zero, false
	}
	return l.newest, true
}

// push appends v.
func (l *blockLog[T]) push(v T) {
	j := uint(l.head + l.n)
	if j == uint(len(l.blocks))*blockSize {
		l.grow()
	}
	l.tail[j%blockSize] = v
	l.newest = v
	l.n++
}

// grow appends an empty tail block, reusing a retired one when the free
// list has it.
func (l *blockLog[T]) grow() {
	var b *[blockSize]T
	if k := len(l.free) - 1; k >= 0 {
		b = l.free[k]
		l.free[k] = nil
		l.free = l.free[:k]
	} else {
		b = new([blockSize]T)
	}
	l.tail = b
	l.blocks = append(l.blocks, b)
}

// drop discards the k oldest records.
func (l *blockLog[T]) drop(k int) {
	if k <= 0 {
		return
	}
	l.n -= k
	l.head += k
	dead := l.head / blockSize
	if l.n == 0 {
		dead, l.head = len(l.blocks), 0
	} else {
		l.head %= blockSize
	}
	live := len(l.blocks) - dead
	for _, b := range l.blocks[:dead] {
		if len(l.free) < live {
			l.free = append(l.free, b)
		}
	}
	if len(l.free) > live {
		clear(l.free[live:])
		l.free = l.free[:live]
	}
	copy(l.blocks, l.blocks[dead:])
	clear(l.blocks[live:])
	l.blocks = l.blocks[:live]
	if live == 0 {
		l.tail = nil
	}
}

// search returns the smallest index in [0, n) whose record satisfies ok,
// or n if none does; ok must be false then true along the log, as for
// sort.Search.
func (l *blockLog[T]) search(ok func(T) bool) int {
	return sort.Search(l.n, func(i int) bool { return ok(l.at(i)) })
}

// each calls fn on the records [lo, hi) as contiguous runs, one per
// block touched, oldest first. An empty or inverted range calls nothing.
func (l *blockLog[T]) each(lo, hi int, fn func(run []T)) {
	for lo < hi {
		j := l.head + lo
		off := j % blockSize
		run := l.blocks[j/blockSize][off:min(blockSize, off+hi-lo)]
		fn(run)
		lo += len(run)
	}
}

// slice returns a fresh contiguous copy of the records [lo, hi), or nil
// when the range is empty or inverted.
func (l *blockLog[T]) slice(lo, hi int) []T {
	if lo >= hi {
		return nil
	}
	out := make([]T, 0, hi-lo)
	l.each(lo, hi, func(run []T) { out = append(out, run...) })
	return out
}
