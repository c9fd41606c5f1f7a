package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// configTypes are the configuration structs whose every exported field
// must be set by some non-test code outside the declaring package (the
// benchmark and example programs count). A field only its own
// package's zero-value defaulting ever sets is a knob with one value in
// use: a named constant says the same with less code and no untested
// configuration space.
var configTypes = []string{
	"autoscaler.FIRMConfig",
	"autoscaler.HPAConfig",
	"autoscaler.VPAConfig",
	"cluster.Options",
	"cluster.ServiceSpec",
	"core.ControllerConfig",
	"core.ManagedResource",
	"core.SCGConfig",
	"core.UnifiedConfig",
	"node.Config",
	"topology.SocialNetworkConfig",
	"topology.SockShopConfig",
	"workload.ClosedLoopConfig",
}

// TestConfigFieldsHaveWriters fails when an exported field of a
// configuration struct is written only by its own package: by a keyed or
// positional composite literal, an assignment or increment, or by
// having its address taken (flag.IntVar(&cfg.N, ...)).
func TestConfigFieldsHaveWriters(t *testing.T) {
	m := selfModule(t)
	written := outsideFieldWrites(m)
	for _, name := range configTypes {
		pkgName, typeName, _ := strings.Cut(name, ".")
		st := lookupStruct(t, m, m.Path+"/internal/"+pkgName, typeName)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			if !written[f] {
				t.Errorf("%s.%s is set only by its own package: delete it and name its default as a constant", name, f.Name())
			}
		}
	}
}

// lookupStruct resolves a package-level struct type of the module.
func lookupStruct(t *testing.T, m *Module, pkgPath, name string) *types.Struct {
	t.Helper()
	for _, p := range m.Pkgs {
		if p.ImportPath != pkgPath {
			continue
		}
		obj, ok := p.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			t.Fatalf("%s.%s: no such type", pkgPath, name)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s.%s is not a struct", pkgPath, name)
		}
		return st
	}
	t.Fatalf("package %s not loaded", pkgPath)
	return nil
}

// outsideFieldWrites returns every struct field some package other than
// the field's own writes. A defined type over another package's struct
// (type HPA autoscaler.HPAConfig) shares its field objects, so writes
// through the conversion count for the original.
func outsideFieldWrites(m *Module) map[*types.Var]bool {
	written := make(map[*types.Var]bool)
	for _, p := range m.Pkgs {
		mark := func(obj types.Object) {
			if f, ok := obj.(*types.Var); ok && f.IsField() && f.Pkg() != p.Pkg {
				written[f] = true
			}
		}
		markSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj())
				}
			}
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.Info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(p.Info.Uses[id])
							}
						} else {
							mark(st.Field(i)) // a positional literal lists every field
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSel(lhs)
					}
				case *ast.IncDecStmt:
					markSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSel(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}

// TestOutsideFieldWritesShapes pins what counts as a write on a small
// module: keyed and positional literals (through a defined type over
// the struct too), assignment, increment and address-of from another
// package count; a read, and a write inside the declaring package, do
// not.
func TestOutsideFieldWritesShapes(t *testing.T) {
	const cfg = `package cfg

type C struct{ Keyed, Assigned, Incremented, Addressed, Read, Internal int }

type P struct{ First, Second int }

func fill(c *C) { c.Internal = 1 }
`
	const user = `package user

import "m/cfg"

type pair cfg.P

func use(p *int) int {
	c := cfg.C{Keyed: 1}
	_ = pair{1, 2}
	c.Assigned = 2
	c.Incremented++
	use(&c.Addressed)
	return c.Read
}
`
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":       "module m\n\ngo 1.22\n",
		"cfg/cfg.go":   cfg,
		"user/user.go": user,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	written := outsideFieldWrites(m)
	var got []string
	for _, typ := range []string{"C", "P"} {
		st := lookupStruct(t, m, "m/cfg", typ)
		for i := 0; i < st.NumFields(); i++ {
			if written[st.Field(i)] {
				got = append(got, st.Field(i).Name())
			}
		}
	}
	sort.Strings(got)
	want := "Addressed Assigned First Incremented Keyed Second"
	if strings.Join(got, " ") != want {
		t.Errorf("written fields = %v, want %s", got, want)
	}
}
