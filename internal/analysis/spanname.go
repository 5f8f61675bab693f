package analysis

import (
	"go/ast"
	"go/constant"
	"strings"
)

// spanMethods are the telemetry.Context methods that mint a span (or
// aggregate phase) from a name argument, keyed by the argument's index.
var spanMethods = map[string]int{
	"StartRoot": 0,
	"Start":     0,
	"EndPhase":  0,
}

func init() {
	Register(&Check{
		Name: "span-name",
		Doc:  "span names passed to telemetry.Context must be literal and match ^mpcdvfs_[a-z0-9_]+$",
		Run:  runSpanName,
	})
}

// runSpanName enforces the span-naming contract, the tracing twin of
// metric-name: every span the decision path emits must carry the
// mpcdvfs_ prefix so /debug/trace consumers (cmd/loadgen's phase
// breakdown, dashboards) can rely on one stable namespace, and the
// name must be a compile-time constant so the contract is checkable.
func runSpanName(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			argIdx, ok := spanMethods[sel.Sel.Name]
			if !ok || len(call.Args) <= argIdx {
				return true
			}
			recv := p.TypeOf(sel.X)
			if recv == nil {
				return true
			}
			named := namedReceiver(recv)
			if named == nil || named.Obj().Name() != "Context" ||
				named.Obj().Pkg() == nil || !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/telemetry") {
				return true
			}
			tv, ok := p.Pkg.Info.Types[call.Args[argIdx]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				p.Reportf(call.Args[argIdx].Pos(), "span name passed to Context.%s is not a compile-time constant; use one of the telemetry.Span* constants so the mpcdvfs_ naming contract is checkable", sel.Sel.Name)
				return true
			}
			if name := constant.StringVal(tv.Value); !metricNameRE.MatchString(name) {
				p.Reportf(call.Args[argIdx].Pos(), "span name %q violates the naming contract %s", name, metricNameRE)
			}
			return true
		})
	}
}
