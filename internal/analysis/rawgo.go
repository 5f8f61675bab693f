package analysis

import (
	"go/ast"
	"regexp"
)

// pooledExemptRE matches the one package allowed to start goroutines
// directly: internal/par, which owns the worker pool every fan-out must
// go through. The decision service starts none: a session is policy
// state under a lock, run on the goroutine of the request that carries
// each operation.
var pooledExemptRE = regexp.MustCompile(`(^|/)internal/par(/|$)`)

func init() {
	Register(&Check{
		Name: "pooled-concurrency",
		Doc:  "no raw go statements outside internal/par",
		Run:  runPooledConcurrency,
	})
}

func runPooledConcurrency(p *Pass) {
	if pooledExemptRE.MatchString(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "raw go statement outside internal/par: fan-out must use par.ForEach so worker counts, accounting and panic propagation stay uniform (long-lived service goroutines may suppress with a reason)")
			}
			return true
		})
	}
}
