package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repoRoot locates the real module root (two levels up from this
// package) via FindModuleRoot, so the test keeps working if the
// package moves.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

var (
	selfOnce sync.Once
	selfMod  *Module
	selfErr  error
)

// selfModule loads the repository's own module once for every test
// that inspects it.
func selfModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	root := repoRoot(t)
	selfOnce.Do(func() { selfMod, selfErr = LoadModule(root) })
	if selfErr != nil {
		t.Fatal(selfErr)
	}
	return selfMod
}

// TestSelfClean runs the full check suite over the repository itself
// and requires zero findings: the tree must stay lint-clean, with every
// deliberate violation carrying a valid, used //soravet:allow
// directive. This is the same gate verify.sh enforces via
// `go run ./cmd/soravet ./...`.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	root := repoRoot(t)
	findings, _, err := RunWithStats(root, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("repository not lint-clean: %s", f)
	}

	// Root-set guard: deadcode must root at exactly the binaries, the
	// nested benchmark module included. If the loader stopped loading
	// benchmark/, everything only the benchmark calls would turn into
	// findings, or worse, be deleted.
	m := selfModule(t)
	want := []string{m.Path + "/benchmark"}
	for _, glob := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(filepath.Join(root, glob))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			rel, err := filepath.Rel(root, d)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, m.Path+"/"+filepath.ToSlash(rel))
		}
	}
	sort.Strings(want)
	if got := m.deadcode().rootPkgs; !slices.Equal(got, want) {
		t.Errorf("deadcode roots = %v, want the main packages %v", got, want)
	}
}

// TestEventRegistryMatchesDesignDoc keeps the Go registry and the
// DESIGN.md event table from drifting apart: every registered name must
// be documented, sorted, and well-formed under the same regexp the
// eventname check enforces.
func TestEventRegistryMatchesDesignDoc(t *testing.T) {
	if !sort.StringsAreSorted(EventNames) {
		t.Errorf("lint.EventNames must stay sorted: %v", EventNames)
	}
	for _, n := range EventNames {
		if !eventNameRE.MatchString(n) {
			t.Errorf("registry entry %q does not match %s", n, eventNameRE)
		}
	}
	design, err := os.ReadFile(filepath.Join(repoRoot(t), "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(design)
	for _, n := range EventNames {
		if !strings.Contains(doc, "`"+n+"`") {
			t.Errorf("event %q is registered in lint.EventNames but not documented in DESIGN.md", n)
		}
	}
}

// TestEventRegistryCoversPublishedEvents greps the non-test sources for
// Publish call literals and asserts each one is registered, as a
// belt-and-braces complement to the type-checked eventname pass.
func TestEventRegistryCoversPublishedEvents(t *testing.T) {
	root := repoRoot(t)
	registered := make(map[string]bool, len(EventNames))
	for _, n := range EventNames {
		registered[n] = true
	}
	publishRE := regexp.MustCompile(`\.Publish\([^,]+,\s*"([^"]+)"`)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !sourceFile(d.Name()) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, match := range publishRE.FindAllStringSubmatch(string(data), -1) {
			if !registered[match[1]] {
				t.Errorf("%s publishes unregistered event %q", path, match[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
