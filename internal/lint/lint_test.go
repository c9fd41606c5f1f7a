package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files with the current output")

// TestFixtures runs each check against its fixture mini-module under
// testdata/ and compares the full text output against the golden file.
// Every fixture seeds positive hits, negative (clean) shapes, and a
// directive-suppressed variant, so the goldens pin all three behaviors
// at once.
func TestFixtures(t *testing.T) {
	tests := []struct {
		fixture string
		checks  []string // nil runs the full suite (directive validation included)
	}{
		{"wallclock", []string{"wallclock"}},
		{"globalrand", []string{"globalrand"}},
		{"maporder", []string{"maporder"}},
		{"nilrecv", []string{"nilrecv"}},
		{"eventname", []string{"eventname"}},
		{"poolsafe", []string{"poolsafe"}},
		{"hotpath", []string{"hotpath"}},
		{"racelist", []string{"racelist"}},
		{"directive", nil},
		{"deadcode", nil}, // full suite, so the unused-directive rule runs
	}
	for _, tt := range tests {
		t.Run(tt.fixture, func(t *testing.T) {
			root := filepath.Join("testdata", tt.fixture)
			findings, _, err := RunWithStats(root, Options{Checks: tt.checks})
			if err != nil {
				t.Fatalf("RunWithStats(%s): %v", root, err)
			}
			var buf bytes.Buffer
			if err := WriteText(&buf, findings); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(root, "expect.golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/lint -update): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixtureSuppressionCounts asserts the directive mechanism is
// actually exercised: each check fixture contains at least one
// //soravet:allow that suppresses a finding, which must therefore be
// absent from the output.
func TestFixtureSuppressionCounts(t *testing.T) {
	for _, fixture := range []string{"wallclock", "globalrand", "maporder", "nilrecv", "eventname", "poolsafe", "hotpath", "racelist"} {
		findings, _, err := RunWithStats(filepath.Join("testdata", fixture), Options{})
		if err != nil {
			t.Fatalf("RunWithStats(%s): %v", fixture, err)
		}
		for _, f := range findings {
			if f.Check == directiveCheck {
				t.Errorf("%s: directive finding in a fixture whose directives should all be valid and used: %s", fixture, f)
			}
		}
	}
}

// TestUnmatchedPatternErrors pins the CLI contract that a typo'd
// package pattern is a hard error rather than a silently-passing
// no-op gate.
func TestUnmatchedPatternErrors(t *testing.T) {
	_, _, err := RunWithStats(filepath.Join("testdata", "wallclock"), Options{
		Patterns: []string{"./internal/...", "./no/such/dir"},
		Checks:   []string{"wallclock"},
	})
	if err == nil || !strings.Contains(err.Error(), "matched no packages") {
		t.Errorf("RunWithStats with unmatched pattern: err = %v, want 'matched no packages'", err)
	}
}

// TestSelectChecks covers the -checks selector including rejection of
// unknown names.
func TestSelectChecks(t *testing.T) {
	got, err := selectChecks([]string{"maporder", " wallclock"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "maporder" || got[1].Name != "wallclock" {
		t.Errorf("selectChecks = %v", got)
	}
	if _, err := selectChecks([]string{"nope"}); err == nil {
		t.Error("selectChecks accepted an unknown check name")
	}
}

// TestMatchPatterns covers the package-pattern matcher used by the CLI
// positional arguments.
func TestMatchPatterns(t *testing.T) {
	cases := []struct {
		rel  string
		pats []string
		want bool
	}{
		{"internal/sim", nil, true},
		{"internal/sim", []string{"./..."}, true},
		{"internal/sim", []string{"./internal/..."}, true},
		{"internal/sim", []string{"./internal/sim"}, true},
		{"internal/simulator", []string{"./internal/sim"}, false},
		{"internal/simulator", []string{"./internal/sim/..."}, false},
		{"cmd/soravet", []string{"./internal/..."}, false},
		{".", []string{"."}, true},
		{".", []string{"./cmd/..."}, false},
	}
	for _, c := range cases {
		if got := matchPatterns(c.rel, c.pats); got != c.want {
			t.Errorf("matchPatterns(%q, %v) = %v, want %v", c.rel, c.pats, got, c.want)
		}
	}
}

// TestCatalog pins the catalog shape the -list flag and DESIGN.md
// document: nine analysis checks plus the directive validator, each
// with a doc line.
func TestCatalog(t *testing.T) {
	cat := Catalog()
	var names []string
	for _, c := range cat {
		names = append(names, c.Name)
		if c.Doc == "" {
			t.Errorf("check %s has no doc line", c.Name)
		}
	}
	want := "wallclock globalrand maporder nilrecv eventname poolsafe hotpath racelist deadcode directive"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("catalog = %q, want %q", got, want)
	}
}

// TestSeededBugs asserts the regressions the deep checks exist to
// catch are actually caught in the fixtures: the PR 6 class
// stale-timer-handle bug (a re-arm callback that never nils its stored
// handle), an allocation inside a Timer.Reset-like AllocsPerRun-pinned
// root, and a helper only a dead function calls. Goldens pin the full output; this test pins the intent,
// so a future message rewrite cannot silently drop the detection.
func TestSeededBugs(t *testing.T) {
	cases := []struct {
		fixture, check, file, needle string
	}{
		{"poolsafe", "poolsafe", "internal/app/app.go", "does not nil field timer"},
		{"poolsafe", "poolsafe", "internal/app/app.go", "used after"},
		{"hotpath", "hotpath", "internal/kernel/kernel.go", "allocates a closure"},
		{"hotpath", "hotpath", "internal/kernel/kernel.go", "kernel.Timer.Reset"},
		{"deadcode", "deadcode", "internal/lib/lib.go", "lib.orphanHelper is unreachable"},
	}
	for _, c := range cases {
		findings, _, err := RunWithStats(filepath.Join("testdata", c.fixture), Options{Checks: []string{c.check}})
		if err != nil {
			t.Fatalf("RunWithStats(%s): %v", c.fixture, err)
		}
		hit := false
		for _, f := range findings {
			if f.Check == c.check && f.File == c.file && strings.Contains(f.Msg, c.needle) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("%s: no %s finding in %s containing %q", c.fixture, c.check, c.file, c.needle)
		}
	}
}

// TestRunStats covers the -stat summary: file/package counts, per-check
// tallies, and the suppression counter all come from one scan.
func TestRunStats(t *testing.T) {
	findings, stats, err := RunWithStats(filepath.Join("testdata", "racelist"), Options{Checks: []string{"racelist"}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files == 0 || stats.Packages == 0 {
		t.Errorf("stats scanned nothing: %+v", stats)
	}
	if got := stats.FindingsPerCheck["racelist"]; got != len(findings) {
		t.Errorf("FindingsPerCheck[racelist] = %d, want %d", got, len(findings))
	}
	if stats.Suppressed == 0 {
		t.Error("suppressed count = 0; the allowed fixture package should contribute one")
	}
	if len(stats.Timings) == 0 {
		t.Error("no per-package type-check timings recorded")
	}
}
