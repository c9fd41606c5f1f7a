package lint

import (
	"fmt"
	"go/ast"
)

// checkGlobalrand flags every call to a package-level function of
// math/rand or math/rand/v2 outside internal/sim: the process-global
// generators (rand.IntN, rand.Uint64, rand.Seed) are seeded from the
// OS and break run-for-run reproducibility, and constructing streams
// directly (rand.New, rand.NewPCG) bypasses the kernel's seed
// derivation. Passing *rand.Rand values around is fine — only calls
// into the rand packages themselves are restricted. internal/sim is
// exempt: it is the single place PCG streams are minted (Kernel.Split).
func checkGlobalrand(m *Module, p *Package, report reporter) {
	if p.ImportPath == m.Path+"/internal/sim" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFuncCallee(p.Info, call)
			if ok && (pkgPath == "math/rand" || pkgPath == "math/rand/v2") {
				report(call.Pos(), fmt.Sprintf(
					"call to %s.%s outside internal/sim; derive randomness from the kernel's seeded PCG streams (sim.Kernel.Split)", pkgPath, name))
			}
			return true
		})
	}
}
