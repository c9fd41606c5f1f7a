package compare

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseTimelineEnvelope pins the envelope contract of the shared
// reader: t_us must be an integer and unit/kind strings, or the line is
// rejected with its number; a second "kind" key (fault lines) is an
// ordered attribute, not the event kind.
func TestParseTimelineEnvelope(t *testing.T) {
	const ok = `{"t_us":1000000,"unit":"u","kind":"timeline.cluster","win_s":1}` + "\n"
	for _, tc := range []struct {
		name, raw, wantErr string
	}{
		{"float t_us", `{"t_us":1.5e6,"unit":"u","kind":"fault.inject"}`, "line 1: t_us 1.5e6 is not an integer"},
		{"fractional t_us", ok + `{"t_us":1500000.5,"unit":"u","kind":"fault.inject"}`, "line 2: t_us 1500000.5 is not an integer"},
		{"string t_us", `{"t_us":"1500000","unit":"u","kind":"fault.inject"}`, "line 1: t_us 1500000 is not an integer"},
		{"overflowing t_us", `{"t_us":99999999999999999999,"unit":"u","kind":"fault.inject"}`, "line 1: t_us 99999999999999999999 is not an integer"},
		{"numeric unit", ok + "\n" + `{"t_us":1,"unit":3,"kind":"fault.inject"}`, "line 3: unit 3 is not a string"},
		{"null kind", `{"t_us":1,"unit":"u","kind":null}`, "line 1: kind <nil> is not a string"},
		{"numeric kind", `{"t_us":1,"unit":"u","kind":7}`, "line 1: kind 7 is not a string"},
		{"duplicate kind", `{"t_us":1500000,"unit":"u","kind":"fault.inject","kind":"crash","target":"backend"}`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := ParseTimeline("x", tc.raw)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			u := run.Units[0]
			if len(u.Faults) != 1 || u.Faults[0].TUs != 1500000 || u.Faults[0].Recover {
				t.Fatalf("faults = %+v, want one inject at 1.5s", u.Faults)
			}
			want := []KV{Str("kind", "crash"), Str("target", "backend")}
			if !reflect.DeepEqual(u.Faults[0].Attrs, want) {
				t.Fatalf("fault attrs = %+v, want %+v", u.Faults[0].Attrs, want)
			}
			if u.EndUs != 1500000 || len(u.Annotations) != 0 {
				t.Fatalf("end %d, annotations %+v", u.EndUs, u.Annotations)
			}
		})
	}
}

// TestParseTimelineAnnotations: controller.*, autoscaler.scale and
// cluster.reconfig events are kept in file order with their kinds;
// run.manifest is identity and fault events are faults, not
// annotations.
func TestParseTimelineAnnotations(t *testing.T) {
	run, err := ParseTimeline("x", timelineA+
		`{"t_us":16000000,"unit":"runA","kind":"cluster.reconfig","service":"cart","knob":"replicas","from":2,"to":3}
{"t_us":16000000,"unit":"runA","kind":"fault.inject","kind":"crash","target":"cart"}
{"t_us":17000000,"unit":"runA","kind":"controller.error","err":"no pairs"}
{"t_us":18000000,"unit":"runA","kind":"autoscaler.scale","service":"cart","to":4}
`)
	if err != nil {
		t.Fatal(err)
	}
	u := run.Units[0]
	var kinds []string
	for _, a := range u.Annotations {
		kinds = append(kinds, a.Kind)
	}
	want := "controller.decision controller.decision cluster.reconfig controller.error autoscaler.scale"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("annotation kinds = %s, want %s", got, want)
	}
	if a := u.Annotations[2]; a.TUs != 16000000 || a.Attrs[2] != (KV{Key: "from", Value: "2", Number: true}) {
		t.Fatalf("reconfig annotation = %+v", a)
	}
	if len(u.Decisions) != 2 || len(u.Faults) != 1 || u.EndUs != 18000000 {
		t.Fatalf("decisions %d, faults %d, end %d", len(u.Decisions), len(u.Faults), u.EndUs)
	}
}

// FuzzParseTimeline: the shared timeline reader never panics on any
// input, and parsing the same bytes twice gives the same Run (or the
// same error).
func FuzzParseTimeline(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		a, errA := ParseTimeline("f", raw)
		b, errB := ParseTimeline("f", raw)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("errors differ: %v vs %v", errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("two parses of the same bytes differ")
		}
	})
}
