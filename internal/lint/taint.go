package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the verify-before-use pass, the dataflow analysis that
// machine-checks LR-Seluge's headline security invariant: every radio-receive
// payload is authenticated immediately on arrival — BEFORE it is buffered in
// node state or fed to an erasure decoder (paper §IV-E). The
// decode-before-verify ordering this rules out is exactly the bug class that
// creeps into coding-layer protocol stacks as they grow.
//
// The analysis is intra-procedural and modular over the ObjectHandler
// contract: each function that receives a packet parameter is checked on its
// own, and passing a still-unverified packet to another function (e.g.
// Node.handleData calling handler.Ingest) is NOT a sink — the callee is
// itself analyzed with its own tainted parameter. Only the two operations
// that actually commit unauthenticated bytes are sinks:
//
//   - storing taint-derived, data-bearing values into state that outlives
//     the call (struct fields, package variables, dereferenced pointers);
//   - passing taint-derived values to an internal/erasure decoder entry
//     point (Decode, DecodeInto, AddSeed).
//
// Taint sources are parameters (and method receivers) whose type is the
// module's packet.Data or packet.Sig (by pointer or value), plus results of
// packet.Unmarshal. Taint propagates through assignments, conversions,
// composite literals, unary/binary expressions, and calls that take a
// tainted argument.
//
// A tainted origin becomes VERIFIED when control flow passes a verification
// event that covers it:
//
//   - a call to a function in the module's internal/crypt tree whose name
//     begins with "Verify" (merkle.Verify, puzzle.Verify, puzzle.VerifyKey,
//     sign.PublicKey.Verify, ...) taking a taint-derived argument;
//   - an == or != comparison in which one side is a call into internal/crypt
//     (hashx.Sum over the packet's AuthBody) on a taint-derived argument;
//   - a call to one of the named in-module verification wrappers
//     (SigContext.WeakCheck / FullVerify, ObjectHandler.Authentic /
//     PreVerifySig) with a taint-derived argument.
//
// Verification events are recognized inside `if` conditions. The common
// early-exit shape
//
//	if !merkle.Verify(root, d.Payload, idx, d.Proof) {
//	    return Rejected
//	}
//	h.buf[idx] = append([]byte(nil), d.Payload...)   // OK: verified
//
// marks the origin verified after the if when the guarded branch diverges
// (return / panic / continue / break), and inside both branches otherwise.
// The analysis does not track the polarity of the condition — it proves "a
// verification call dominates the sink", not that the sink sits on the
// success arm; the fixture tests pin this approximation.
//
// Intentionally unauthenticated baselines (Deluge, Rateless Deluge) carry
// `//lrlint:ignore verify-before-use <reason>` directives at their sinks;
// the inventory lives in DESIGN.md §10.

// verifierWrapperNames are in-module methods that perform verification on
// behalf of the crypt packages (they wrap hash/puzzle/signature checks).
var verifierWrapperNames = map[string]bool{
	"WeakCheck":    true,
	"FullVerify":   true,
	"Authentic":    true,
	"PreVerifySig": true,
}

// decoderEntryNames are the internal/erasure entry points that consume
// possibly-corrupt shards; feeding them unverified bytes is a sink.
var decoderEntryNames = map[string]bool{
	"Decode":     true,
	"DecodeInto": true,
	"AddSeed":    true,
}

// checkTaint implements verify-before-use for every function of the package.
func checkTaint(pkg *Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := newTaintAnalysis(pkg, cfg)
			a.seedParams(fd)
			a.walkStmt(fd.Body)
			diags = append(diags, a.diags...)
		}
	}
	return diags
}

// taintAnalysis carries the per-function dataflow state.
type taintAnalysis struct {
	pkg   *Package
	cfg   Config
	diags []Diagnostic

	// origin maps a variable object to the origin parameter object its value
	// derives from. Origins map to themselves.
	origin map[types.Object]types.Object
	// verified holds the origins whose data has passed a verification event
	// on the current path.
	verified map[types.Object]bool
}

func newTaintAnalysis(pkg *Package, cfg Config) *taintAnalysis {
	return &taintAnalysis{
		pkg:      pkg,
		cfg:      cfg,
		origin:   make(map[types.Object]types.Object),
		verified: make(map[types.Object]bool),
	}
}

// seedParams marks the function's packet-typed parameters and receiver as
// taint origins.
func (a *taintAnalysis) seedParams(fd *ast.FuncDecl) {
	seed := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				obj := a.pkg.Info.Defs[name]
				if obj != nil && a.isPacketType(obj.Type()) {
					a.origin[obj] = obj
				}
			}
		}
	}
	seed(fd.Recv)
	seed(fd.Type.Params)
}

// isPacketType reports whether t is the module's packet.Data or packet.Sig
// (by value or pointer), identified by package-path suffix so fixture modules
// exercise the pass without importing the real tree.
func (a *taintAnalysis) isPacketType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pathInModuleTree(a.cfg.ModulePath, obj.Pkg().Path(), "internal/packet") {
		return false
	}
	return obj.Name() == "Data" || obj.Name() == "Sig"
}

// pathInModuleTree reports whether pkgPath is modPath/prefix or below it.
func pathInModuleTree(modPath, pkgPath, prefix string) bool {
	full := modPath + "/" + prefix
	return pkgPath == full || strings.HasPrefix(pkgPath, full+"/")
}

// exprOrigins returns the set of taint origins the expression derives from.
func (a *taintAnalysis) exprOrigins(e ast.Expr) map[types.Object]bool {
	out := make(map[types.Object]bool)
	a.collectOrigins(e, out)
	return out
}

func (a *taintAnalysis) collectOrigins(e ast.Expr, out map[types.Object]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := a.pkg.Info.Uses[n]
			if obj == nil {
				obj = a.pkg.Info.Defs[n]
			}
			if obj == nil {
				return true
			}
			if org, ok := a.origin[obj]; ok {
				out[org] = true
			}
		case *ast.CallExpr:
			// packet.Unmarshal results are sources in their own right: the
			// Unmarshal *types.Func serves as the origin object, so the
			// verification machinery tracks it like any parameter.
			if fn := a.calleeFunc(n); fn != nil && fn.Pkg() != nil &&
				pathInModuleTree(a.cfg.ModulePath, fn.Pkg().Path(), "internal/packet") &&
				fn.Name() == "Unmarshal" {
				out[fn] = true
			}
		}
		return true
	})
}

// unverified filters origins down to the ones not yet verified.
func (a *taintAnalysis) unverified(origins map[types.Object]bool) []types.Object {
	var out []types.Object
	for org := range origins {
		if !a.verified[org] {
			out = append(out, org)
		}
	}
	return out
}

// walkStmt processes one statement, updating taint and verification state
// and recording sink findings.
func (a *taintAnalysis) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			a.walkStmt(st)
		}
	case *ast.IfStmt:
		a.walkStmt(s.Init)
		verifiedByCond := a.verifierEvents(s.Cond)
		a.checkExprSinks(s.Cond)
		// Walk the guarded branch with the verification event in force (it
		// only executes after the verifier call ran), snapshotting state so
		// branch-local propagation does not leak.
		saved := a.snapshot()
		a.markVerified(verifiedByCond)
		a.walkStmt(s.Body)
		a.restore(saved)
		if s.Else != nil {
			saved := a.snapshot()
			a.markVerified(verifiedByCond)
			a.walkStmt(s.Else)
			a.restore(saved)
		}
		// The verifier call sits in the CONDITION, so it has executed on
		// every path that reaches the statements after the if — it dominates
		// the remainder of the function regardless of which arm ran.
		// (Short-circuit caveats are accepted: in `a && verify(b)` the call
		// may be skipped; the fixtures pin this approximation.)
		a.markVerified(verifiedByCond)
	case *ast.ExprStmt:
		a.checkExprSinks(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			a.checkExprSinks(rhs)
		}
		a.processAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					a.checkExprSinks(v)
				}
				a.processVarSpec(vs)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.checkExprSinks(r)
		}
	case *ast.RangeStmt:
		a.checkExprSinks(s.X)
		a.walkStmt(s.Body)
	case *ast.ForStmt:
		a.walkStmt(s.Init)
		a.checkExprSinks(s.Cond)
		a.walkStmt(s.Post)
		a.walkStmt(s.Body)
	case *ast.SwitchStmt:
		a.walkStmt(s.Init)
		a.checkExprSinks(s.Tag)
		saved := a.snapshot()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				a.checkExprSinks(e)
			}
			for _, st := range cc.Body {
				a.walkStmt(st)
			}
			a.restore(saved)
		}
	case *ast.TypeSwitchStmt:
		a.walkStmt(s.Init)
		a.walkStmt(s.Assign)
		saved := a.snapshot()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, st := range cc.Body {
				a.walkStmt(st)
			}
			a.restore(saved)
		}
	case *ast.GoStmt:
		a.walkCallStmt(s.Call)
	case *ast.DeferStmt:
		a.walkCallStmt(s.Call)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			a.walkStmt(comm.Comm)
			for _, st := range comm.Body {
				a.walkStmt(st)
			}
		}
	case *ast.SendStmt:
		a.checkExprSinks(s.Chan)
		a.checkExprSinks(s.Value)
	case *ast.LabeledStmt:
		a.walkStmt(s.Stmt)
	case *ast.IncDecStmt:
		a.checkExprSinks(s.X)
	}
}

// walkCallStmt handles go/defer calls: the call itself is checked for sinks,
// and a function-literal callee's body is walked with the current state (the
// closure may run later, when verification state can only have grown, so the
// current state is the conservative choice).
func (a *taintAnalysis) walkCallStmt(call *ast.CallExpr) {
	a.checkExprSinks(call)
}

// snapshot/restore copy the mutable maps so branch walks stay isolated.
type taintSnapshot struct {
	origin   map[types.Object]types.Object
	verified map[types.Object]bool
}

func (a *taintAnalysis) snapshot() taintSnapshot {
	o := make(map[types.Object]types.Object, len(a.origin))
	for k, v := range a.origin {
		o[k] = v
	}
	ver := make(map[types.Object]bool, len(a.verified))
	for k, v := range a.verified {
		ver[k] = v
	}
	return taintSnapshot{origin: o, verified: ver}
}

func (a *taintAnalysis) restore(s taintSnapshot) {
	a.origin = s.origin
	a.verified = s.verified
}

func (a *taintAnalysis) markVerified(origins []types.Object) {
	for _, org := range origins {
		a.verified[org] = true
	}
}

// processAssign propagates taint through an assignment and flags escaping
// stores of unverified data.
func (a *taintAnalysis) processAssign(s *ast.AssignStmt) {
	// Propagation: only the 1:1 form is tracked precisely; for the
	// multi-value form (x, err := f(tainted)) every LHS inherits the union.
	var rhsOrigins map[types.Object]bool
	if len(s.Lhs) == len(s.Rhs) {
		rhsOrigins = nil // computed per position below
	} else {
		rhsOrigins = make(map[types.Object]bool)
		for _, rhs := range s.Rhs {
			a.collectOrigins(rhs, rhsOrigins)
		}
	}
	for i, lhs := range s.Lhs {
		origins := rhsOrigins
		if origins == nil {
			origins = a.exprOrigins(s.Rhs[i])
		}
		a.flagStore(lhs, origins, s.Pos())
		a.propagate(lhs, origins)
	}
}

func (a *taintAnalysis) processVarSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	union := make(map[types.Object]bool)
	for _, v := range vs.Values {
		a.collectOrigins(v, union)
	}
	for _, name := range vs.Names {
		if obj := a.pkg.Info.Defs[name]; obj != nil {
			a.setOrigins(obj, union)
		}
	}
}

// propagate updates the origin map for a plain identifier target.
func (a *taintAnalysis) propagate(lhs ast.Expr, origins map[types.Object]bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := a.pkg.Info.Defs[id]
	if obj == nil {
		obj = a.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	a.setOrigins(obj, origins)
}

func (a *taintAnalysis) setOrigins(obj types.Object, origins map[types.Object]bool) {
	delete(a.origin, obj)
	for org := range origins {
		// A variable deriving from several origins is attributed to one of
		// them per map entry; findings fire per unverified origin anyway.
		a.origin[obj] = org
	}
}

// flagStore reports a finding when unverified taint-derived data of a
// data-bearing type is written to a location that outlives the call.
func (a *taintAnalysis) flagStore(lhs ast.Expr, origins map[types.Object]bool, pos token.Pos) {
	if len(origins) == 0 || !a.escapingTarget(lhs) {
		return
	}
	if !dataBearing(a.pkg.Info.TypeOf(lhs)) {
		return
	}
	for _, org := range a.unverified(origins) {
		a.report(pos, "unverified data derived from %q is stored in %s before any internal/crypt verification; authenticate on arrival (verify-before-use, paper §IV-E)", org.Name(), types.ExprString(lhs))
		return // one finding per store statement
	}
}

// escapingTarget reports whether the lvalue outlives the function call:
// struct fields, element writes through fields, package-level variables, and
// stores through dereferenced pointers. Writes to function-local variables
// (including named locals holding slices) stay local until themselves stored,
// so they are not sinks.
func (a *taintAnalysis) escapingTarget(lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return a.escapingTarget(l.X)
	case *ast.Ident:
		obj := a.pkg.Info.Uses[l]
		if obj == nil {
			return false
		}
		// Package-level variable: its scope parent is the package scope.
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return v.Parent() == a.pkg.Types.Scope()
	default:
		return false
	}
}

// dataBearing reports whether the stored type can carry payload bytes worth
// authenticating: anything but a plain basic scalar (ints, bools, strings,
// floats). Counters and flags derived from header fields are not sinks.
func dataBearing(t types.Type) bool {
	if t == nil {
		return false
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// checkExprSinks scans an expression for decoder-entry calls with unverified
// taint-derived arguments, walks nested function literals, and propagates
// verification events that occur outside if-conditions (a bare
// `ok := merkle.Verify(...)` does NOT verify — only branching on it does, so
// plain expressions yield no events here).
func (a *taintAnalysis) checkExprSinks(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure body executes with at least the current
			// verification state.
			a.walkStmt(n.Body)
			return false
		case *ast.CallExpr:
			a.checkDecoderSink(n)
		}
		return true
	})
}

// checkDecoderSink flags internal/erasure Decode/DecodeInto/AddSeed calls
// that consume unverified taint-derived arguments.
func (a *taintAnalysis) checkDecoderSink(call *ast.CallExpr) {
	fn := a.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if !pathInModuleTree(a.cfg.ModulePath, fn.Pkg().Path(), "internal/erasure") || !decoderEntryNames[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		origins := a.exprOrigins(arg)
		for _, org := range a.unverified(origins) {
			a.report(call.Pos(), "unverified data derived from %q reaches erasure decoder %s; authenticate every packet before decoding (verify-before-use, paper §IV-E)", org.Name(), fn.Name())
			return
		}
	}
}

// calleeFunc resolves the called function object, if any.
func (a *taintAnalysis) calleeFunc(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := a.pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := a.pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	default:
		return nil
	}
}

// verifierEvents scans a condition expression for verification events and
// returns the origins they cover.
func (a *taintAnalysis) verifierEvents(cond ast.Expr) []types.Object {
	if cond == nil {
		return nil
	}
	covered := make(map[types.Object]bool)
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if a.isVerifierCall(n) {
				for _, arg := range n.Args {
					for org := range a.exprOrigins(arg) {
						covered[org] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, side := range []ast.Expr{n.X, n.Y} {
					if call, ok := ast.Unparen(side).(*ast.CallExpr); ok && a.isCryptCall(call) {
						for _, arg := range call.Args {
							for org := range a.exprOrigins(arg) {
								covered[org] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	out := make([]types.Object, 0, len(covered))
	for org := range covered {
		out = append(out, org)
	}
	return out
}

// isVerifierCall recognizes calls that constitute a verification event: a
// Verify* function from internal/crypt, or a named in-module wrapper.
func (a *taintAnalysis) isVerifierCall(call *ast.CallExpr) bool {
	fn := a.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if pathInModuleTree(a.cfg.ModulePath, fn.Pkg().Path(), "internal/crypt") && strings.HasPrefix(fn.Name(), "Verify") {
		return true
	}
	// In-module wrapper methods (SigContext.FullVerify, Handler.Authentic...).
	if strings.HasPrefix(fn.Pkg().Path(), a.cfg.ModulePath) && verifierWrapperNames[fn.Name()] {
		return true
	}
	return false
}

// isCryptCall reports whether the call targets any function of the module's
// internal/crypt tree (hashx.Sum in a comparison is the canonical case).
func (a *taintAnalysis) isCryptCall(call *ast.CallExpr) bool {
	fn := a.calleeFunc(call)
	return fn != nil && fn.Pkg() != nil && pathInModuleTree(a.cfg.ModulePath, fn.Pkg().Path(), "internal/crypt")
}

func (a *taintAnalysis) report(pos token.Pos, format string, args ...any) {
	a.diags = append(a.diags, Diagnostic{
		Pos:  a.pkg.Fset.Position(pos),
		Rule: RuleTaint,
		Msg:  fmt.Sprintf(format, args...),
	})
}
