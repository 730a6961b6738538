package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the rng-provenance pass. The reproducibility rules so
// far are local: no-global-rand bans the process-global source at the call
// site, rng-stream-discipline polices where streams may be STORED. Neither
// proves the property the harness actually depends on — that every random
// draw in simulation code descends from the scenario seed. A stream can pass
// every local rule and still be rootless: constructed from a wall-clock seed
// three packages away and threaded down through constructors.
//
// This pass closes that gap with a cross-package demand-driven trace. Every
// method call on a *rand.Rand receiver in non-test code is a consumption
// site; the receiver expression is traced backwards to its constructions:
//
//   - rand.New(...) is the seeded origin (rng-const-seed separately polices
//     the seed expression itself);
//   - a local variable traces through its assignments in the enclosing body;
//   - &x and *x trace as x (a stream held by value is its pointer's);
//   - a parameter traces through every static call site's argument — both
//     direct calls and, for methods behind a module-declared interface,
//     the call sites of the interface method, expanded via the implementers
//     table (this is what connects radio's loss models to Network.rng);
//   - a struct field traces through every assignment and composite literal
//     recorded for it anywhere in the module;
//   - a call of a module function traces through that function's return
//     statements.
//
// The trace is memoized per object and cut on cycles (a cycle means the
// stream circulates among already-visited holders, so it is justified by
// whatever non-cyclic origin feeds the cycle). A receiver with NO visible
// origin at all (never-assigned field, parameter of an uncalled exported
// hook) is vacuously accepted: consuming a nil Rand panics at runtime, so
// such code is dead or wired externally — flagging it would punish every
// library entry point. Anything that resolves to an origin the trace cannot
// classify (an external call, an element of a slice, a multi-value
// assignment) is a finding.
func checkProvenance(idx *modIndex) []Diagnostic {
	p := &provAnalysis{
		idx:     idx,
		ifaceOf: make(map[*types.Func][]*types.Func),
		memo:    make(map[types.Object]bool),
		active:  make(map[types.Object]bool),
	}
	for m, impls := range idx.implementers {
		for _, im := range impls {
			p.ifaceOf[im] = append(p.ifaceOf[im], m)
		}
	}
	for _, fi := range idx.order {
		if isTestFile(fi.pkg, fi.decl.Pos()) {
			continue
		}
		p.scanConsumption(fi)
	}
	return p.diags
}

type provAnalysis struct {
	idx *modIndex

	// ifaceOf maps a concrete module method to the module-declared interface
	// methods it satisfies (the reverse of modIndex.implementers).
	ifaceOf map[*types.Func][]*types.Func

	// memo caches the verdict per parameter/field/local object; active marks
	// objects currently on the trace stack, cutting cycles as seeded.
	memo   map[types.Object]bool
	active map[types.Object]bool

	diags []Diagnostic
}

// scanConsumption finds every method call on a Rand-typed receiver in one
// declared function (closures included) and traces the receiver.
func (p *provAnalysis) scanConsumption(fi *funcInfo) {
	done := make(map[string]bool)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isRandRandType(fi.pkg.Info.TypeOf(sel.X)) {
			return true
		}
		key := types.ExprString(sel.X)
		if done[key] {
			return true
		}
		done[key] = true
		if !p.traceExpr(fi.pkg, fi, sel.X) {
			p.diags = append(p.diags, Diagnostic{
				Pos:  fi.pkg.Fset.Position(sel.X.Pos()),
				Rule: RuleRNGProv,
				Msg: fmt.Sprintf("rand stream %q cannot be traced to a seeded rand.New construction; derive it from the run's seed chain and thread it here explicitly",
					key),
			})
		}
		return true
	})
}

// traceExpr reports whether every origin of the expression is a seeded
// rand.New construction. fn is the declared function whose body contains the
// expression (nil for package-level contexts).
func (p *provAnalysis) traceExpr(pkg *Package, fn *funcInfo, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		callee := calleeOf(pkg, x)
		if callee == nil {
			return false
		}
		if isRandPkg(callee.Pkg()) && callee.Name() == "New" {
			return true
		}
		if ci := p.idx.funcs[callee]; ci != nil {
			return p.traceReturns(ci)
		}
		return false
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return p.traceVar(pkg, fn, v)
	case *ast.SelectorExpr:
		obj, _ := pkg.Info.Uses[x.Sel].(*types.Var)
		if obj == nil {
			return false
		}
		if obj.IsField() {
			return p.traceField(obj)
		}
		// Package-qualified variable: global stream state, separately banned
		// by rng-stream-discipline; untraceable here.
		return false
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return p.traceExpr(pkg, fn, x.X)
		}
		return false
	case *ast.StarExpr:
		// A stream held by value is the one its pointer points to.
		return p.traceExpr(pkg, fn, x.X)
	default:
		return false
	}
}

// traceVar dispatches a variable to the parameter or local trace, memoized.
func (p *provAnalysis) traceVar(pkg *Package, fn *funcInfo, v *types.Var) bool {
	if r, ok := p.memo[v]; ok {
		return r
	}
	if p.active[v] {
		return true // cycle: justified by whatever feeds the cycle
	}
	p.active[v] = true
	defer delete(p.active, v)

	r := p.traceVarUncached(pkg, fn, v)
	p.memo[v] = r
	return r
}

func (p *provAnalysis) traceVarUncached(pkg *Package, fn *funcInfo, v *types.Var) bool {
	if fn != nil {
		if i, ok := paramIndex(fn.obj, v); ok {
			return p.traceParam(fn, i)
		}
		origins, traceable := localOrigins(fn, v)
		if !traceable {
			return false
		}
		if v.Pos() >= fn.decl.Pos() && v.Pos() <= fn.decl.End() {
			// A local (or closure parameter) of this body: every assignment
			// must be seeded; a never-assigned local is nil and vacuous.
			for _, o := range origins {
				if !p.traceExpr(pkg, fn, o) {
					return false
				}
			}
			if len(origins) > 0 {
				return true
			}
			// Closure parameters have no assignments and no resolvable call
			// sites; they fall through to unknown below unless the literal
			// is invoked through nothing at all.
			if isClosureParam(fn, v) {
				return false
			}
			return true
		}
	}
	// Package-level or foreign variable: stream state outside any traced
	// body. rng-stream-discipline bans the storage; here it is untraceable.
	return false
}

// traceParam traces a declared function's parameter through every static
// call site of the function and of any module interface methods it stands
// behind. No call sites at all is vacuous (library entry point).
func (p *provAnalysis) traceParam(fn *funcInfo, i int) bool {
	targets := []*types.Func{fn.obj}
	targets = append(targets, p.ifaceOf[fn.obj]...)
	for _, t := range targets {
		for _, site := range p.idx.callSites[t] {
			if i >= len(site.call.Args) {
				return false // spread call or mismatched shape: untraceable
			}
			if !p.traceExpr(site.pkg, site.fn, site.call.Args[i]) {
				return false
			}
		}
	}
	return true
}

// traceField traces a struct field through every recorded assignment. A
// never-assigned field is nil at runtime and vacuously accepted.
func (p *provAnalysis) traceField(field *types.Var) bool {
	if r, ok := p.memo[field]; ok {
		return r
	}
	if p.active[field] {
		return true
	}
	p.active[field] = true
	defer delete(p.active, field)

	r := true
	for _, a := range p.idx.fieldAssigns[field] {
		if !p.traceExpr(a.pkg, a.fn, a.expr) {
			r = false
			break
		}
	}
	p.memo[field] = r
	return r
}

// traceReturns traces the Rand-typed result of a module function through its
// return statements.
func (p *provAnalysis) traceReturns(fn *funcInfo) bool {
	obj := types.Object(fn.obj)
	if r, ok := p.memo[obj]; ok {
		return r
	}
	if p.active[obj] {
		return true
	}
	p.active[obj] = true
	defer delete(p.active, obj)

	r := p.traceReturnsUncached(fn)
	p.memo[obj] = r
	return r
}

func (p *provAnalysis) traceReturnsUncached(fn *funcInfo) bool {
	sig, _ := fn.obj.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	ri := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if isRandRandType(sig.Results().At(i).Type()) {
			ri = i
			break
		}
	}
	if ri == -1 {
		return false
	}
	ok := true
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // nested literals return from themselves
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) == 0 {
			ok = false // naked return of named results: untraceable
			return true
		}
		if ri >= len(ret.Results) {
			ok = false // single-call multi-value return: untraceable
			return true
		}
		if !p.traceExpr(fn.pkg, fn, ret.Results[ri]) {
			ok = false
		}
		return true
	})
	return ok
}

// paramIndex finds v among fn's declared parameters.
func paramIndex(fn *types.Func, v *types.Var) (int, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return i, true
		}
	}
	return 0, false
}

// isClosureParam reports whether v is a parameter of some function literal
// nested in fn's body (its declaration position sits inside a FuncLit's
// parameter list).
func isClosureParam(fn *funcInfo, v *types.Var) bool {
	found := false
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || found {
			return !found
		}
		if lit.Type.Params != nil && v.Pos() >= lit.Type.Params.Pos() && v.Pos() <= lit.Type.Params.End() {
			found = true
		}
		return !found
	})
	return found
}

// localOrigins collects the right-hand sides assigned to v anywhere in fn's
// body. traceable turns false on write forms the trace cannot follow
// (multi-value assignments, range clauses).
func localOrigins(fn *funcInfo, v *types.Var) (origins []ast.Expr, traceable bool) {
	traceable = true
	objOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := fn.pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return fn.pkg.Info.Uses[id]
	}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if objOf(lhs) != v {
					continue
				}
				if len(n.Lhs) != len(n.Rhs) {
					traceable = false
					continue
				}
				origins = append(origins, n.Rhs[i])
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if fn.pkg.Info.Defs[name] != v {
					continue
				}
				if i < len(n.Values) {
					origins = append(origins, n.Values[i])
				}
			}
		case *ast.RangeStmt:
			if (n.Key != nil && objOf(n.Key) == v) || (n.Value != nil && objOf(n.Value) == v) {
				traceable = false
			}
		}
		return true
	})
	return origins, traceable
}

// isRandRandType reports whether t is rand.Rand or *rand.Rand from math/rand
// or math/rand/v2.
func isRandRandType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil {
		return false
	}
	return isRandPkg(n.Obj().Pkg()) && n.Obj().Name() == "Rand"
}

// isTestFile reports whether the position lies in a _test.go file.
func isTestFile(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}
