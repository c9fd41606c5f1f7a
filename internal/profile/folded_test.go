package profile_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"sora/internal/profile"
)

// TestReadFoldedRejectsOutOfRange checks that a value whose
// microseconds cannot be a non-negative time.Duration is an error that
// names its line, not a silently wrapped or negative duration.
func TestReadFoldedRejectsOutOfRange(t *testing.T) {
	for _, in := range []string{
		"svc;cpu 9223372036854775807", // wraps to -1µs when multiplied
		"svc;cpu 9223372036854776",    // one past the largest representable value
		"svc;cpu -5",
	} {
		_, err := profile.ReadFolded(strings.NewReader("ok;cpu 1\n\n" + in + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("ReadFolded(%q): err = %v, want an out-of-range error naming line 3", in, err)
		}
	}
	lines, err := profile.ReadFolded(strings.NewReader("svc;cpu 9223372036854775\nsvc;cpu 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(9223372036854775) * time.Microsecond; lines[0].Dur != want || lines[1].Dur != 0 {
		t.Errorf("boundary values decoded to %v, %v; want %v, 0", lines[0].Dur, lines[1].Dur, want)
	}
}

// FuzzReadFolded feeds arbitrary bytes to ReadFolded: it may not panic,
// and every line it accepts must carry a non-negative duration equal to
// the microsecond value written after the last space of its input line.
func FuzzReadFolded(f *testing.F) {
	f.Add([]byte("getCart;front-end;cart;cpu 1234\n\ngetCart;front-end;queue 7\n"))
	f.Add([]byte("svc;cpu 9223372036854775807"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, err := profile.ReadFolded(bytes.NewReader(data))
		if err != nil {
			return
		}
		var values []string
		for _, l := range strings.Split(string(data), "\n") {
			if l = strings.TrimSpace(l); l != "" {
				values = append(values, l[strings.LastIndexByte(l, ' ')+1:])
			}
		}
		if len(values) != len(lines) {
			t.Fatalf("accepted %d lines from %d nonblank input lines", len(lines), len(values))
		}
		for i, l := range lines {
			us, err := strconv.ParseInt(values[i], 10, 64)
			if err != nil {
				t.Fatalf("line %d: accepted unparsable value %q", i+1, values[i])
			}
			if l.Dur < 0 || l.Dur/time.Microsecond != time.Duration(us) || l.Dur%time.Microsecond != 0 {
				t.Fatalf("line %d: value %d decoded to %v", i+1, us, l.Dur)
			}
		}
	})
}
