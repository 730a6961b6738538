package lint

// Module-wide index backing the cross-package passes. Where the per-package
// passes see one AST at a time, alloc-hotpath needs "which functions are
// reachable from the hot roots" and rng-provenance needs "who calls this
// function / who assigns this field / which concrete methods stand behind
// this interface method" — all module-level questions. buildModIndex answers
// them once per run from the type-checked packages.
//
// The call graph is static: direct calls and method calls with statically
// known receivers. Calls through function values, method values and closures
// are not edges, and interface calls are kept as edges to the *interface*
// method object (the provenance pass expands those through the implementers
// table; hot-path reachability deliberately does not — hot roots are declared
// explicitly or marked in source, never inferred through dynamic dispatch).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// funcInfo is one declared function or method of the module.
type funcInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func

	// qname is the module-relative qualified name: "pkg/path.Func" or
	// "pkg/path.Recv.Method" with pointer receivers written plain.
	qname string

	// callees lists the statically resolved callee of every call in the
	// body, in source order (module-internal and external alike).
	callees []*types.Func

	// refs lists functions referenced as values rather than called —
	// method values handed to schedulers (eng.Schedule(d, n.sendSNACK)),
	// callbacks stored in struct fields, function arguments. The effect and
	// scan-complexity passes treat a reference as a potential call edge,
	// which is how reachability crosses the event system's stored-closure
	// boundary.
	refs []*types.Func

	// callbackFields lists the func-typed struct fields the body reads or
	// calls. A callback bound once at construction (n.onTxStep =
	// n.txStep) and scheduled through its field later flows to every
	// module function the module stores in that field (see flowEdges).
	callbackFields []*types.Var

	// hot marks reachability from a hot root; hotVia names the root.
	hot    bool
	hotVia string

	// marked means the declaration carries //lrlint:hotpath.
	marked bool
}

// callSite is one static call of a declared function. fn is the declared
// function whose body contains the call (nil for package-level initializers).
type callSite struct {
	pkg  *Package
	fn   *funcInfo
	call *ast.CallExpr
}

// exprIn is an expression with the package and declared function it appears
// in (needed to resolve identifiers through that package's type info and to
// find local assignments in the enclosing body).
type exprIn struct {
	pkg  *Package
	fn   *funcInfo
	expr ast.Expr
}

type modIndex struct {
	cfg  Config
	pkgs []*Package

	funcs  map[*types.Func]*funcInfo
	order  []*funcInfo // deterministic (file, offset) order
	byName map[string]*funcInfo

	// callSites maps every declared or imported function object to the
	// static calls of it found anywhere in the module.
	callSites map[*types.Func][]callSite

	// implementers maps a module-declared interface method to the concrete
	// module methods satisfying it.
	implementers map[*types.Func][]*types.Func

	// fieldAssigns maps a struct field object to every expression the module
	// assigns to it, through plain assignment or composite literals.
	fieldAssigns map[*types.Var][]exprIn
}

// buildModIndex constructs the index and runs hot-root reachability.
// markers carries the //lrlint:hotpath-annotated declarations collected
// alongside the directive scan.
func buildModIndex(pkgs []*Package, cfg Config, markers map[*ast.FuncDecl]bool) *modIndex {
	idx := &modIndex{
		cfg:          cfg,
		pkgs:         pkgs,
		funcs:        make(map[*types.Func]*funcInfo),
		byName:       make(map[string]*funcInfo),
		callSites:    make(map[*types.Func][]callSite),
		implementers: make(map[*types.Func][]*types.Func),
		fieldAssigns: make(map[*types.Var][]exprIn),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &funcInfo{
					pkg:    pkg,
					decl:   fd,
					obj:    obj,
					qname:  qualifiedName(cfg, pkg, fd),
					marked: markers[fd],
				}
				idx.funcs[obj] = fi
				idx.order = append(idx.order, fi)
				idx.byName[fi.qname] = fi
			}
		}
		idx.scanPackage(pkg)
	}
	sort.Slice(idx.order, func(i, j int) bool {
		a := idx.order[i].pkg.Fset.Position(idx.order[i].decl.Pos())
		b := idx.order[j].pkg.Fset.Position(idx.order[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	idx.buildImplementers()
	idx.markHot()
	return idx
}

// scanPackage records call sites, per-function callee lists and field
// assignments across the whole package (function bodies and package-level
// initializers alike).
func (idx *modIndex) scanPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var enclosing *funcInfo
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
					enclosing = idx.funcs[obj]
				}
			}
			// Idents that name the callee of a call they appear in: those
			// are call edges, not value references. ast.Inspect visits a
			// CallExpr before its Fun child, so the set is filled in time.
			inCallPos := make(map[*ast.Ident]bool)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch fun := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						inCallPos[fun] = true
					case *ast.SelectorExpr:
						inCallPos[fun.Sel] = true
					}
					if callee := calleeOf(pkg, n); callee != nil {
						idx.callSites[callee] = append(idx.callSites[callee], callSite{pkg: pkg, fn: enclosing, call: n})
						if enclosing != nil {
							// Calls inside nested function literals are
							// attributed to the declared function — a
							// conservative over-approximation for hot
							// reachability.
							enclosing.callees = append(enclosing.callees, callee)
						}
					}
				case *ast.Ident:
					if enclosing == nil {
						return true
					}
					if v, _ := pkg.Info.Uses[n].(*types.Var); v != nil && v.IsField() {
						if _, ok := v.Type().Underlying().(*types.Signature); ok {
							enclosing.callbackFields = append(enclosing.callbackFields, v)
						}
					}
					if inCallPos[n] {
						return true
					}
					if fn, _ := pkg.Info.Uses[n].(*types.Func); fn != nil {
						enclosing.refs = append(enclosing.refs, fn)
					}
				case *ast.AssignStmt:
					if len(n.Rhs) != len(n.Lhs) {
						// Multi-value rhs (x.f, y := g()) is untraceable and
						// stays out of the table; a consumer reached only
						// through it resolves to unknown, conservatively.
						return true
					}
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						field, _ := pkg.Info.Uses[sel.Sel].(*types.Var)
						if field == nil || !field.IsField() {
							continue
						}
						idx.fieldAssigns[field] = append(idx.fieldAssigns[field], exprIn{pkg: pkg, fn: enclosing, expr: n.Rhs[i]})
					}
				case *ast.CompositeLit:
					idx.scanCompositeLit(pkg, enclosing, n)
				}
				return true
			})
		}
	}
}

// scanCompositeLit records `T{Field: expr}` (and positional `T{expr, ...}`)
// as field assignments when T is a struct type.
func (idx *modIndex) scanCompositeLit(pkg *Package, enclosing *funcInfo, lit *ast.CompositeLit) {
	t := pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if field, _ := pkg.Info.Uses[key].(*types.Var); field != nil && field.IsField() {
				idx.fieldAssigns[field] = append(idx.fieldAssigns[field], exprIn{pkg: pkg, fn: enclosing, expr: kv.Value})
			}
			continue
		}
		if i < st.NumFields() {
			idx.fieldAssigns[st.Field(i)] = append(idx.fieldAssigns[st.Field(i)], exprIn{pkg: pkg, fn: enclosing, expr: elt})
		}
	}
}

// buildImplementers matches every module method against every
// module-declared interface, so interface calls can be expanded to the
// concrete methods possibly behind them.
func (idx *modIndex) buildImplementers() {
	type ifaceDecl struct {
		iface *types.Interface
	}
	var ifaces []ifaceDecl
	for _, pkg := range idx.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if obj == nil {
						continue
					}
					if iface, ok := obj.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
						ifaces = append(ifaces, ifaceDecl{iface: iface})
					}
				}
			}
		}
	}
	for _, fi := range idx.order {
		sig, _ := fi.obj.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		for _, id := range ifaces {
			if !types.Implements(recv, id.iface) && !types.Implements(types.NewPointer(recv), id.iface) {
				continue
			}
			for i := 0; i < id.iface.NumMethods(); i++ {
				m := id.iface.Method(i)
				if m.Name() == fi.obj.Name() {
					idx.implementers[m] = append(idx.implementers[m], fi.obj)
				}
			}
		}
	}
}

// markHot runs BFS over static call edges from the configured roots and the
// //lrlint:hotpath-marked declarations.
func (idx *modIndex) markHot() {
	var queue []*funcInfo
	for _, root := range idx.cfg.HotRoots {
		if fi := idx.byName[root]; fi != nil && !fi.hot {
			fi.hot = true
			fi.hotVia = fi.qname
			queue = append(queue, fi)
		}
	}
	for _, fi := range idx.order {
		if fi.marked && !fi.hot {
			fi.hot = true
			fi.hotVia = fi.qname
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range fi.callees {
			ci := idx.funcs[callee]
			if ci == nil || ci.hot {
				continue
			}
			ci.hot = true
			ci.hotVia = fi.hotVia
			queue = append(queue, ci)
		}
	}
}

// flowEdges returns the module functions control can flow into from fi: its
// static callees, the functions it references as values (stored callbacks
// and scheduled method values are eventually invoked), the functions the
// module stores in the callback fields it reads, and — for interface
// methods in any of these — every concrete module method that may stand
// behind the dispatch. The result is deduplicated and in deterministic
// (source, implementers-table) order.
func (idx *modIndex) flowEdges(fi *funcInfo) []*funcInfo {
	var out []*funcInfo
	seen := make(map[*funcInfo]bool)
	add := func(obj *types.Func) {
		if ci := idx.funcs[obj]; ci != nil && !seen[ci] {
			seen[ci] = true
			out = append(out, ci)
		}
		for _, impl := range idx.implementers[obj] {
			if ci := idx.funcs[impl]; ci != nil && !seen[ci] {
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	for _, c := range fi.callees {
		add(c)
	}
	for _, r := range fi.refs {
		add(r)
	}
	for _, f := range fi.callbackFields {
		for _, e := range idx.fieldAssigns[f] {
			if fn := funcValue(e); fn != nil {
				add(fn)
			}
		}
	}
	return out
}

// funcValue resolves an expression stored in a callback field to the
// function it names: a function or a method value. Function literals and
// variables resolve to nil.
func funcValue(e exprIn) *types.Func {
	switch x := ast.Unparen(e.expr).(type) {
	case *ast.Ident:
		fn, _ := e.pkg.Info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := e.pkg.Info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// reportable limits alloc-hotpath findings to the configured hot-path trees
// plus explicitly marked functions, so reachability through shared helpers
// (topo, metrics, trace) does not drag unrelated packages into the gate.
func (idx *modIndex) reportable(fi *funcInfo) bool {
	return fi.marked || idx.cfg.inScope(fi.pkg.ImportPath, idx.cfg.HotPathPackages)
}

// qualifiedName renders the module-relative qualified name used by
// Config.HotRoots: "pkg/path.Func" or "pkg/path.Recv.Method".
func qualifiedName(cfg Config, pkg *Package, decl *ast.FuncDecl) string {
	rel := pkg.ImportPath
	if cfg.ModulePath != "" {
		if rel == cfg.ModulePath {
			rel = ""
		} else {
			rel = strings.TrimPrefix(rel, cfg.ModulePath+"/")
		}
	}
	name := decl.Name.Name
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		if tn := recvTypeName(decl.Recv.List[0].Type); tn != "" {
			name = tn + "." + name
		}
	}
	if rel == "" {
		return name
	}
	return rel + "." + name
}

// recvTypeName extracts the receiver's type name, stripping pointers and
// type parameters.
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	default:
		return ""
	}
}
