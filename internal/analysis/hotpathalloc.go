package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

func init() {
	Register(&Check{
		Name:      "hotpath-alloc",
		Doc:       "functions annotated //mpclint:hotpath, and everything they transitively call, contain no allocation sites",
		RunModule: runHotpathAlloc,
	})
}

// runHotpathAlloc turns the repository's AllocsPerRun pins into a
// static proof. A function annotated //mpclint:hotpath must contain no
// allocation site — make/new, escaping composite literals, capturing
// closures, interface boxing, append, variadic argument slices, string
// concatenation, allocating conversions, map writes, go statements —
// and neither may anything it transitively calls: static calls into the
// module are followed (with one finding at the hot call site carrying
// the witness chain), calls to other hotpath-annotated functions are
// trusted (each is proven under its own annotation), external calls
// must be on a small allowlist of known allocation-free stdlib
// operations (a function an allowlisted external is handed counts as
// a call at the argument), and interface or function-value calls are
// unprovable and flagged at the site. panic(...) argument subtrees are
// exempt — the failure path is allowed to allocate its message.
func runHotpathAlloc(p *ModulePass) {
	g := p.Graph
	h := &hotState{
		pass:  p,
		facts: map[*types.Func]*hotFacts{},
	}

	// Facts for every module function: its own allocation sites and its
	// classified outgoing calls, both excluding panic arguments.
	for _, fn := range g.Funcs() {
		h.facts[fn] = h.collect(fn)
	}

	// Propagate may-allocate causes backward over static module calls,
	// breadth-first so every witness chain is shortest; annotated
	// functions do not propagate (they are proven independently) and are
	// never assigned a transitive cause (their own sites are reported
	// directly below).
	causes := map[*types.Func]*hotCause{}
	var frontier []*types.Func
	for _, fn := range g.Funcs() {
		if c := h.facts[fn].ownCause(); c != nil {
			causes[fn] = c
			frontier = append(frontier, fn)
		}
	}
	rev := map[*types.Func][]hotEdge{}
	for _, fn := range g.Funcs() {
		for _, call := range h.facts[fn].calls {
			if call.callee != nil {
				rev[call.callee] = append(rev[call.callee], hotEdge{caller: fn, pos: call.pos})
			}
		}
	}
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].Pos() < frontier[j].Pos() })
		var next []*types.Func
		for _, callee := range frontier {
			if _, hot := p.Ann.Hotpath[callee]; hot {
				continue
			}
			callers := append([]hotEdge(nil), rev[callee]...)
			sort.Slice(callers, func(i, j int) bool { return callers[i].pos < callers[j].pos })
			for _, e := range callers {
				if _, seen := causes[e.caller]; seen {
					continue
				}
				causes[e.caller] = &hotCause{pos: e.pos, next: callee}
				next = append(next, e.caller)
			}
		}
		frontier = next
	}

	// Report every problem of every annotated function.
	for _, fn := range g.Funcs() {
		if _, hot := p.Ann.Hotpath[fn]; !hot {
			continue
		}
		f := h.facts[fn]
		for _, s := range f.sites {
			p.Reportf(s.pos, "%s in //mpclint:hotpath function %s; the zero-alloc pin forbids allocation sites", s.desc, funcLabel(fn))
		}
		for _, call := range f.calls {
			if call.desc != "" {
				p.Reportf(call.pos, "%s in //mpclint:hotpath function %s; hot paths may only call proven allocation-free code", call.desc, funcLabel(fn))
				continue
			}
			if _, trusted := p.Ann.Hotpath[call.callee]; trusted {
				continue
			}
			if c := causes[call.callee]; c != nil {
				p.Reportf(call.pos, "call may allocate in //mpclint:hotpath function %s: %s; the zero-alloc pin extends to everything the hot path calls",
					funcLabel(fn), h.chain(fn, call.callee, causes))
			}
		}
	}
}

// hotSite is one intrinsic allocation site.
type hotSite struct {
	pos  token.Pos
	desc string
}

// hotCall is one call leaving a function body: either an immediately
// problematic one (desc set: external non-allowlisted, interface,
// dynamic) or a static call into the module (callee set) whose
// allocation behavior is decided by propagation.
type hotCall struct {
	pos    token.Pos
	callee *types.Func
	desc   string
}

// hotFacts is everything hotpath-alloc knows about one function body.
type hotFacts struct {
	sites []hotSite
	calls []hotCall
}

// ownCause returns the function's first immediate may-allocate cause in
// source order, or nil for a locally clean body.
func (f *hotFacts) ownCause() *hotCause {
	var best *hotCause
	for _, s := range f.sites {
		if best == nil || s.pos < best.pos {
			best = &hotCause{pos: s.pos, desc: s.desc}
		}
	}
	for _, c := range f.calls {
		if c.desc == "" {
			continue
		}
		if best == nil || c.pos < best.pos {
			best = &hotCause{pos: c.pos, desc: c.desc}
		}
	}
	return best
}

// hotCause explains why a function may allocate: an intrinsic site
// (desc set) or a call into another may-allocating function (next set).
type hotCause struct {
	pos  token.Pos
	desc string
	next *types.Func
}

type hotEdge struct {
	caller *types.Func
	pos    token.Pos
}

type hotState struct {
	pass  *ModulePass
	facts map[*types.Func]*hotFacts
}

// chain renders the witness path from an annotated function through
// module calls to the terminal allocation cause.
func (h *hotState) chain(fn, callee *types.Func, causes map[*types.Func]*hotCause) string {
	g := h.pass.Graph
	var b strings.Builder
	b.WriteString(funcLabel(fn))
	for hops := 0; callee != nil && hops < 64; hops++ {
		fmt.Fprintf(&b, " → %s", funcLabel(callee))
		c := causes[callee]
		if c == nil {
			break
		}
		if c.next == nil {
			fmt.Fprintf(&b, " (%s at %s)", c.desc, shortPos(g, c.pos))
			break
		}
		callee = c.next
	}
	return b.String()
}

// collect walks one function body classifying allocation sites and
// outgoing calls, skipping panic(...) argument subtrees.
func (h *hotState) collect(fn *types.Func) *hotFacts {
	f := &hotFacts{}
	decl := h.pass.Graph.Decl(fn)
	if decl == nil || decl.Body == nil {
		return f
	}
	pkg := h.pass.Graph.PackageOf(fn)
	info := pkg.Info

	addrTaken := map[*ast.CompositeLit]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				return false // the failure path may build its message
			}
			h.classifyCall(f, info, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					addrTaken[lit] = true
					f.add(n.Pos(), "composite literal escapes to the heap (&T{...})")
				}
			}
		case *ast.CompositeLit:
			if addrTaken[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				f.add(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				f.add(n.Pos(), "map literal allocates")
			}
		case *ast.FuncLit:
			if capturesOutside(info, n) {
				f.add(n.Pos(), "closure captures variables and allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						f.add(lhs.Pos(), "map assignment may grow the map")
					}
				}
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				f.add(n.Pos(), "string concatenation allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n.X)) {
				f.add(n.Pos(), "string concatenation allocates")
			}
		case *ast.GoStmt:
			f.add(n.Pos(), "go statement spawns a goroutine")
		}
		return true
	})
	sort.Slice(f.sites, func(i, j int) bool { return f.sites[i].pos < f.sites[j].pos })
	sort.Slice(f.calls, func(i, j int) bool { return f.calls[i].pos < f.calls[j].pos })
	return f
}

func (f *hotFacts) add(pos token.Pos, desc string) {
	f.sites = append(f.sites, hotSite{pos: pos, desc: desc})
}

// classifyCall decides what one call expression means for the zero-alloc
// proof: a builtin site, an allocating conversion, a followable module
// call, an allowlisted external, or an unprovable callee.
func (h *hotState) classifyCall(f *hotFacts, info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			h.classifyConversion(f, info, call, tv.Type)
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				f.add(call.Pos(), "make allocates")
			case "new":
				f.add(call.Pos(), "new allocates")
			case "append":
				f.add(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	// Signature-level sites that apply to any call form: the variadic
	// argument slice and interface boxing of concrete arguments.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		h.signatureSites(f, info, call, sig)
	}

	// Resolve the callee.
	var callee *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
	case *ast.FuncLit:
		return // body walked in place, attributed to this function
	}
	if callee == nil {
		f.calls = append(f.calls, hotCall{pos: call.Pos(), desc: "dynamic call through a function value cannot be proven allocation-free"})
		return
	}
	callee = normFunc(callee)
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && isInterfaceRecv(sig) {
		f.calls = append(f.calls, hotCall{pos: call.Pos(),
			desc: fmt.Sprintf("interface call %s dispatches dynamically and cannot be proven allocation-free", funcLabel(callee))})
		return
	}
	if h.pass.Graph.Decl(callee) != nil {
		f.calls = append(f.calls, hotCall{pos: call.Pos(), callee: callee})
		return
	}
	if !hotAllowedExternal(callee) {
		f.calls = append(f.calls, hotCall{pos: call.Pos(),
			desc: fmt.Sprintf("call to %s is outside the module and not on the allocation-free allowlist", callee.FullName())})
		return
	}
	// An allowlisted external calls the functions it is handed (the
	// comparator of slices.SortStableFunc) where the analyzer cannot
	// see: each function-typed argument counts as a call made here.
	for _, arg := range call.Args {
		h.classifyFuncArg(f, info, arg)
	}
}

// classifyFuncArg classifies a function value passed to an allowlisted
// external. A literal is walked in place (and flagged there if it
// captures), a named function is a static call like any other, and any
// other function value — a parameter, a variable, a method value — is a
// dynamic call.
func (h *hotState) classifyFuncArg(f *hotFacts, info *types.Info, arg ast.Expr) {
	arg = ast.Unparen(arg)
	if t := info.TypeOf(arg); t == nil {
		return
	} else if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
		return
	}
	var fn *types.Func
	switch a := arg.(type) {
	case *ast.FuncLit:
		return
	case *ast.Ident:
		fn, _ = info.Uses[a].(*types.Func)
	case *ast.SelectorExpr:
		if _, isSel := info.Selections[a]; !isSel { // pkg.F, not a method value
			fn, _ = info.Uses[a.Sel].(*types.Func)
		}
	}
	if fn == nil {
		f.calls = append(f.calls, hotCall{pos: arg.Pos(), desc: "function value passed to an allowlisted call cannot be proven allocation-free"})
		return
	}
	fn = normFunc(fn)
	if h.pass.Graph.Decl(fn) != nil {
		f.calls = append(f.calls, hotCall{pos: arg.Pos(), callee: fn})
		return
	}
	if !hotAllowedExternal(fn) {
		f.calls = append(f.calls, hotCall{pos: arg.Pos(),
			desc: fmt.Sprintf("call to %s is outside the module and not on the allocation-free allowlist", fn.FullName())})
	}
}

// classifyConversion flags conversions that copy or box.
func (h *hotState) classifyConversion(f *hotFacts, info *types.Info, call *ast.CallExpr, target types.Type) {
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch target.Underlying().(type) {
	case *types.Interface:
		if !types.IsInterface(src) && !pointerShaped(src) && !isUntypedNil(src) {
			f.add(call.Pos(), "conversion boxes a non-pointer value into an interface")
		}
	case *types.Slice:
		if isString(src) {
			f.add(call.Pos(), "string-to-slice conversion allocates")
		}
	default:
		if isString(target) {
			if _, ok := src.Underlying().(*types.Slice); ok {
				f.add(call.Pos(), "slice-to-string conversion allocates")
			}
		}
	}
}

// signatureSites flags the variadic argument slice and concrete-to-
// interface argument boxing for a call with a known signature.
func (h *hotState) signatureSites(f *hotFacts, info *types.Info, call *ast.CallExpr, sig *types.Signature) {
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		if !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			f.add(call.Pos(), "variadic call allocates its argument slice")
		}
	}
	for i := 0; i < fixed && i < len(call.Args); i++ {
		param := sig.Params().At(i).Type()
		if !types.IsInterface(param) {
			continue
		}
		arg := info.TypeOf(call.Args[i])
		if arg == nil || types.IsInterface(arg) || pointerShaped(arg) || isUntypedNil(arg) {
			continue
		}
		f.add(call.Args[i].Pos(), "argument boxed into interface parameter")
	}
}

// hotAllowedExternal is the allowlist of external (stdlib) operations
// the hot paths are permitted to call: each entry is known not to
// allocate on its fast path and is exercised under an AllocsPerRun pin
// somewhere in the test suite.
func hotAllowedExternal(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error() and friends on predeclared types
	}
	switch pkg.Path() {
	case "math", "math/bits", "sync/atomic":
		return true
	}
	sig, _ := fn.Type().(*types.Signature)
	recv := sig != nil && sig.Recv() != nil
	switch pkg.Path() {
	case "time":
		if !recv {
			return fn.Name() == "Now" || fn.Name() == "Since"
		}
		rt := sig.Recv().Type()
		if named, ok := rt.(*types.Named); ok && named.Obj().Name() == "Duration" {
			return true // Duration methods are pure arithmetic
		}
		switch fn.Name() {
		case "Sub", "Unix", "UnixNano", "Equal", "Before", "After", "IsZero":
			return true // non-allocating time.Time accessors
		}
		return false
	case "math/rand", "math/rand/v2":
		if !recv {
			return false // package-level draws are also a determinism leak
		}
		switch fn.Name() {
		case "Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
			"Uint32", "Uint64", "Float32", "Float64", "ExpFloat64", "NormFloat64":
			return true // scalar draws on a seeded *rand.Rand
		}
		return false
	case "context":
		return fn.Name() == "Background" || fn.Name() == "TODO"
	}
	switch fn.FullName() {
	case "slices.SortStableFunc":
		// Insertion sort plus in-place symmetric merges: no buffer and,
		// unlike sort.SliceStable, no reflect swapper. classifyCall
		// proves the comparator as a call at its argument.
		return true
	case "(*sync.Mutex).Lock", "(*sync.Mutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*log/slog.Logger).Enabled":
		return true
	}
	return false
}

// capturesOutside reports whether a function literal references any
// variable declared outside its own body — the capture that forces the
// closure (and captured locals) onto the heap.
func capturesOutside(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
			if declaredOutside(v, lit, lit) && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
				captures = true
			}
		}
		return true
	})
	return captures
}

// isPanicCall reports whether call invokes the predeclared panic.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// pointerShaped reports whether values of t fit an interface's data
// word without boxing: pointers, channels, maps, funcs and unsafe
// pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
