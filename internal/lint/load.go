package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the module loader: it discovers every package under a
// module root, parses it with comments (the directive scanner needs
// them), topologically sorts packages by their intra-module imports and
// type-checks them in dependency order. Imports outside the module
// (the standard library) are resolved by the stdlib source importer, so
// the whole pipeline stays on go/parser + go/types with no external
// dependencies and no generated export data.

// Package is one parsed and type-checked package of the module.
type Package struct {
	ImportPath string // full import path, e.g. "sora/internal/sim"
	RelDir     string // slash-separated dir relative to module root ("." at root)
	Dir        string // absolute directory
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Module is a fully loaded module tree ready for checks.
type Module struct {
	Root    string // absolute directory containing go.mod
	Path    string // module path declared in go.mod
	Fset    *token.FileSet
	Pkgs    []*Package  // sorted by import path
	Timings []PkgTiming // per-package type-check wall time, sorted by path

	anns     *annotations // lazily scanned //soravet:pool + hotpath annotations
	hot      *hotResult   // lazily computed hotpath reachability (hotpath.go)
	dead     *deadResult  // lazily computed main-package reachability (deadcode.go)
	racePkgs map[string]bool
	raceScan bool // racePkgs computed (nil map is a valid result: no verify.sh)
}

// PkgTiming records how long one package took to type-check.
type PkgTiming struct {
	Path string `json:"path"`
	MS   int64  `json:"ms"`
}

// FindModuleRoot walks up from dir to the nearest directory containing
// a go.mod file.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the declared module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// skipDir reports whether a directory subtree is excluded from
// analysis: VCS metadata, testdata fixtures (they deliberately contain
// violations), and underscore/dot-prefixed directories the go tool
// ignores.
func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// discover returns every directory under root holding at least one
// non-test .go file, as slash-separated paths relative to root.
func discover(root string) ([]string, error) {
	var dirs []string
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// sourceFile reports whether name is a non-test Go source file the
// loader should parse.
func sourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// excludedByBuildTags reports whether the file's //go:build constraint
// (legacy // +build lines are not consulted; gofmt keeps the modern
// form in sync) excludes it for the host configuration. A file we
// cannot read or parse is treated as included and left to the parser
// to reject.
func excludedByBuildTags(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			break // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(trimmed) {
			continue
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			continue
		}
		if !expr.Eval(buildTagSatisfied) {
			return true
		}
	}
	return false
}

// buildTagSatisfied evaluates one build tag for the host: GOOS, GOARCH,
// the gc toolchain, the "unix" alias, and go1.N release tags. Anything
// else (custom -tags like "ignore") is unsatisfied, which is exactly
// how the go tool treats an untagged build.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos", "aix":
			return true
		}
		return false
	}
	if v, ok := strings.CutPrefix(tag, "go1."); ok {
		n, err := strconv.Atoi(v)
		return err == nil && n <= goMinorVersion()
	}
	return false
}

// goMinorVersion parses the running release's minor version ("go1.24.0"
// → 24); development toolchains report a huge value so every go1.N tag
// is satisfied.
func goMinorVersion() int {
	v := runtime.Version()
	rest, ok := strings.CutPrefix(v, "go1.")
	if !ok {
		return 1 << 30
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 1 << 30
	}
	return n
}

// LoadModule parses and type-checks every package under root. It
// returns an error if any file fails to parse or any package fails to
// type-check: the linter analyzes compiling code only.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := discover(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := make(map[string]*Package, len(dirs))
	var order []string // import paths in discovery order
	for _, rel := range dirs {
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + rel
		}
		dir := filepath.Join(root, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !sourceFile(e.Name()) {
				continue
			}
			name := filepath.Join(dir, e.Name())
			if excludedByBuildTags(name) {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		byPath[importPath] = &Package{ImportPath: importPath, RelDir: rel, Dir: dir, Files: files}
		order = append(order, importPath)
	}

	sorted, err := topoSort(order, byPath, modPath)
	if err != nil {
		return nil, err
	}

	timings, err := checkPackages(fset, sorted, byPath, modPath)
	if err != nil {
		return nil, err
	}

	pkgs := make([]*Package, 0, len(byPath))
	for _, p := range byPath {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return &Module{Root: root, Path: modPath, Fset: fset, Pkgs: pkgs, Timings: timings}, nil
}

// checkPackages type-checks every package across GOMAXPROCS workers,
// dispatching a package only once all of its intra-module dependencies
// have checked (the topological order from topoSort is the seed order,
// so scheduling is deterministic; timing, of course, is not). The
// shared chain importer serializes import resolution behind a mutex —
// the stdlib source importer is not safe for concurrent use — while
// the type-checking of independent package bodies proceeds in
// parallel. On failure every package downstream of the broken one is
// skipped and the lexicographically smallest failing path is reported,
// so the error is stable under any worker interleaving.
func checkPackages(fset *token.FileSet, sorted []string, byPath map[string]*Package, modPath string) ([]PkgTiming, error) {
	deps := make(map[string][]string, len(sorted))
	dependents := make(map[string][]string, len(sorted))
	indeg := make(map[string]int, len(sorted))
	for _, path := range sorted {
		ds := intraModuleDeps(byPath[path], modPath)
		deps[path] = ds
		indeg[path] = len(ds)
		for _, d := range ds {
			dependents[d] = append(dependents[d], path)
		}
	}

	imp := &chainImporter{
		local: make(map[string]*types.Package, len(sorted)),
		std:   importer.ForCompiler(fset, "source", nil),
	}

	type result struct {
		path string
		pkg  *types.Package
		err  error
		ms   int64
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sorted) {
		workers = len(sorted)
	}
	readyCh := make(chan string, len(sorted))
	resCh := make(chan result, len(sorted))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range readyCh {
				p := byPath[path]
				p.Info = &types.Info{
					Types:      make(map[ast.Expr]types.TypeAndValue),
					Defs:       make(map[*ast.Ident]types.Object),
					Uses:       make(map[*ast.Ident]types.Object),
					Selections: make(map[*ast.SelectorExpr]*types.Selection),
					Implicits:  make(map[ast.Node]types.Object),
				}
				conf := types.Config{Importer: imp}
				start := time.Now() //soravet:allow wallclock per-package type-check timing for the -v flag, never in artifacts
				tpkg, err := conf.Check(path, fset, p.Files, p.Info)
				ms := time.Since(start).Milliseconds() //soravet:allow wallclock per-package type-check timing for the -v flag, never in artifacts
				resCh <- result{path: path, pkg: tpkg, err: err, ms: ms}
			}
		}()
	}

	finished := 0
	depFailed := make(map[string]bool)
	errs := make(map[string]error)
	var timings []PkgTiming
	var finish func(path string, ok bool)
	finish = func(path string, ok bool) {
		finished++
		for _, d := range dependents[path] {
			if !ok {
				depFailed[d] = true
			}
			indeg[d]--
			if indeg[d] == 0 {
				if depFailed[d] {
					finish(d, false) // skipped: a dependency failed
				} else {
					readyCh <- d
				}
			}
		}
	}
	for _, path := range sorted {
		if indeg[path] == 0 {
			readyCh <- path
		}
	}
	for finished < len(sorted) {
		res := <-resCh
		p := byPath[res.path]
		if res.err != nil {
			errs[res.path] = res.err
			finish(res.path, false)
			continue
		}
		p.Pkg = res.pkg
		imp.addLocal(res.path, res.pkg) // before dependents can be scheduled
		timings = append(timings, PkgTiming{Path: res.path, MS: res.ms})
		finish(res.path, true)
	}
	close(readyCh)
	wg.Wait()

	if len(errs) > 0 {
		paths := make([]string, 0, len(errs))
		for p := range errs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		return nil, fmt.Errorf("type-checking %s: %w", paths[0], errs[paths[0]])
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].Path < timings[j].Path })
	return timings, nil
}

// intraModuleDeps lists the package's module-local imports, sorted and
// deduplicated. Existence was already validated by topoSort.
func intraModuleDeps(p *Package, modPath string) []string {
	set := make(map[string]bool)
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			dep := strings.Trim(spec.Path.Value, `"`)
			if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
				set[dep] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// topoSort orders import paths so that every intra-module dependency
// precedes its importers. Imports outside the module are ignored here
// (the chain importer resolves them).
func topoSort(paths []string, byPath map[string]*Package, modPath string) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(paths))
	out := make([]string, 0, len(paths))
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		state[path] = visiting
		p := byPath[path]
		deps := make(map[string]bool)
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				dep := strings.Trim(spec.Path.Value, `"`)
				if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
					if _, ok := byPath[dep]; !ok {
						return fmt.Errorf("%s imports %s, which has no Go files under the module root", path, dep)
					}
					deps[dep] = true
				}
			}
		}
		sortedDeps := make([]string, 0, len(deps))
		for d := range deps {
			sortedDeps = append(sortedDeps, d)
		}
		sort.Strings(sortedDeps)
		for _, d := range sortedDeps {
			if err := visit(d, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = done
		out = append(out, path)
		return nil
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	for _, p := range sorted {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chainImporter resolves intra-module imports from the packages already
// type-checked this load, and everything else (the standard library)
// through the stdlib source importer sharing the same FileSet. The
// mutex covers every resolution: the source importer keeps an internal
// package cache that is not safe for concurrent use, and parallel
// workers hit it simultaneously for shared stdlib dependencies.
type chainImporter struct {
	mu    sync.Mutex
	local map[string]*types.Package
	std   types.Importer
}

func (c *chainImporter) addLocal(path string, pkg *types.Package) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.local[path] = pkg
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	if from, ok := c.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return c.std.Import(path)
}
