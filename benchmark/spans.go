package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run: a workload run, one
// virtual-second RunUntil slice, the drain, or a layer probe call.
// Times are host nanoseconds since the span log was created; Parent is
// the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so the untraced run pays one pointer test per slice.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now()} //soravet:allow wallclock span timestamps are host time by definition
}

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		ID:     len(l.spans) + 1,
		Parent: parent,
		Name:   name,
		Start:  time.Since(l.origin).Nanoseconds(), //soravet:allow wallclock span timestamps are host time by definition
	})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = time.Since(l.origin).Nanoseconds() //soravet:allow wallclock span timestamps are host time by definition
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
