package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pinNameRE matches a hotpath reason's first word when it names a test,
// benchmark or fuzz target.
var pinNameRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z]\w*$`)

// TestHotpathPinsExist fails when a //soravet:hotpath reason cites a
// test, benchmark or fuzz target that no file of the module declares:
// a pin that does not exist guards nothing.
func TestHotpathPinsExist(t *testing.T) {
	m := selfModule(t)
	declared := declaredFuncs(t, repoRoot(t))
	for _, r := range m.annotations().roots {
		pin, _, _ := strings.Cut(r.reason, " ")
		if pinNameRE.MatchString(pin) && !declared[pin] {
			t.Errorf("%s: //soravet:hotpath cites %s, which no file of the module declares", r.label, pin)
		}
	}
}

// declaredFuncs returns the names of the top-level functions declared in
// every Go file under root, test files included, skipping the
// directories the loader skips.
func declaredFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
