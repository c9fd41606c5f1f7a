package compare

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestParseBaselineRejectsUnknownKindAndDirection: a misspelt kind would
// drop the entry from the quick sentinel and a misspelt direction would
// flip its bound, so both are errors that name the entry.
func TestParseBaselineRejectsUnknownKindAndDirection(t *testing.T) {
	for _, tc := range []struct{ kind, direction, want string }{
		{"Sim", "lower", `entry "x/p99_ms": kind "Sim"`},
		{"", "lower", `entry "x/p99_ms": kind ""`},
		{"sim", "Lower", `entry "x/p99_ms": direction "Lower"`},
		{"timing", "", `entry "x/p99_ms": direction ""`},
	} {
		raw := `{"schema": "sora-baseline/v1", "entries": [{"name": "x/p99_ms", "value": 1, "tolerance": 0.05, "direction": "` +
			tc.direction + `", "kind": "` + tc.kind + `"}]}`
		_, err := ParseBaseline([]byte(raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("kind %q direction %q: err = %v, want %q", tc.kind, tc.direction, err, tc.want)
		}
	}
	if _, err := LoadBaseline("../../BASELINE.json"); err != nil {
		t.Fatalf("checked-in baseline: %v", err)
	}
}

// FuzzParseBaseline: decoding never panics, and an accepted baseline
// survives WriteBaseline's encoding unchanged.
func FuzzParseBaseline(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := ParseBaseline(raw)
		if err != nil {
			return
		}
		enc, err := encodeBaseline(b)
		if err != nil {
			t.Fatalf("encode accepted baseline: %v", err)
		}
		again, err := ParseBaseline(enc)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", enc, err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip changed the baseline:\n%+v\n%+v", b, again)
		}
		if enc2, _ := encodeBaseline(again); !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not stable")
		}
	})
}
