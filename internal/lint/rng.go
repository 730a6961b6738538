package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// This file implements the rng-stream-discipline pass. The simulator's
// reproducibility contract is that every random draw derives from the
// scenario seed through an explicit chain of ownership: the scenario splits
// its seed per component (radio, per-node trickle, adversary, key
// generation), each component owns exactly one *rand.Rand constructed as
// rand.New(xrand.NewSplitMix(derivedSeed)), and streams never cross
// component boundaries — two consumers interleaving draws from one stream
// make both schedule-dependent.
//
// no-global-rand (PR 1) bans the process-global source; this pass closes the
// remaining leaks, module-wide in non-test code:
//
//   - rng-package-var: a package-level variable whose type contains a
//     *rand.Rand / rand.Source (directly or inside a struct/slice/map/...).
//     Package state outlives scenarios, so a stream stored there is shared
//     by construction and survives across runs, breaking same-seed identity.
//
//   - rng-exported-state: an exported struct field, or an exported
//     function/method RESULT, whose type contains an RNG stream. Exporting a
//     stream hands it to arbitrary consumers outside the owning component.
//     Parameters are deliberately allowed: passing a stream DOWN into a
//     constructor (dissem.NewNode -> trickle.New) is exactly how ownership
//     is transferred, and the unexported field it lands in is the ownership
//     record.
//
//   - rng-shared-source: the same rand.Source identifier passed to two or
//     more rand.New calls within one function. Each Rand advances the shared
//     source, so the two streams are entangled and order-sensitive.
//
//   - rng-const-seed: rand.NewSource / rand.NewPCG / rand.NewChaCha8 /
//     xrand.NewSplitMix called with all-constant arguments outside tests. A
//     literal seed is a stream that ignores the scenario seed entirely.
//
//   - rng-source-family: rand.NewSource outside tests. Every stream draws
//     from SplitMix64 (internal/xrand), so one set of goldens covers every
//     run; a math/rand source would start a second stream family (and
//     carry ~4.9 KB of state per stream).
func checkRNG(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:  pkg.Fset.Position(n.Pos()),
			Rule: RuleRNG,
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec: // package-level vars only reach here via f.Decls
						for _, name := range spec.Names {
							obj := pkg.Info.Defs[name]
							if obj == nil {
								continue
							}
							if _, isVar := obj.(*types.Var); isVar && typeContainsRand(obj.Type()) {
								report(name, "package-level variable %q holds an RNG stream; streams must be owned by a seeded component, not package state", name.Name)
							}
						}
					case *ast.TypeSpec:
						diags = append(diags, checkExportedRandFields(pkg, spec)...)
					}
				}
			case *ast.FuncDecl:
				if decl.Name.IsExported() && decl.Type.Results != nil {
					for _, res := range decl.Type.Results.List {
						if t := pkg.Info.TypeOf(res.Type); typeIsRandStream(t) {
							report(res.Type, "exported %s returns an RNG stream; streams must not leak across component boundaries", decl.Name.Name)
						}
					}
				}
				if decl.Body != nil {
					diags = append(diags, checkSharedSource(pkg, decl.Body)...)
				}
			}
		}
	}

	// rng-const-seed and rng-source-family apply to every construction
	// site, wherever nested.
	walkNonTest(pkg, func(f *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pkg, call)
		if fn == nil || !isSourceCtor(fn) {
			return true
		}
		if fn.Name() == "NewSource" && fn.Pkg().Path() == "math/rand" {
			report(call, "rand.NewSource starts a math/rand stream family beside SplitMix64; build the stream as rand.New(xrand.NewSplitMix(seed))")
		}
		if len(call.Args) == 0 {
			return true
		}
		for _, arg := range call.Args {
			if tv, ok := pkg.Info.Types[arg]; !ok || tv.Value == nil {
				return true // at least one non-constant argument: seed flows in
			}
		}
		report(call, "%s.%s with a constant seed ignores the scenario seed; derive the seed from the run's seed chain", fn.Pkg().Name(), fn.Name())
		return true
	})
	return diags
}

// isSourceCtor reports whether fn builds a seeded random source: math/rand's
// NewSource, math/rand/v2's NewPCG and NewChaCha8, or the module's
// xrand.NewSplitMix.
func isSourceCtor(fn *types.Func) bool {
	switch {
	case isRandPkg(fn.Pkg()):
		switch fn.Name() {
		case "NewSource", "NewPCG", "NewChaCha8":
			return true
		}
	case fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "/internal/xrand"):
		return fn.Name() == "NewSplitMix"
	}
	return false
}

// checkExportedRandFields flags exported struct fields of RNG-bearing type
// on exported struct types.
func checkExportedRandFields(pkg *Package, spec *ast.TypeSpec) []Diagnostic {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var diags []Diagnostic
	for _, field := range st.Fields.List {
		t := pkg.Info.TypeOf(field.Type)
		if !typeIsRandStream(t) {
			continue
		}
		for _, name := range field.Names {
			if !name.IsExported() {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(name.Pos()),
				Rule: RuleRNG,
				Msg: fmt.Sprintf("exported field %s.%s exposes an RNG stream; keep streams unexported so ownership stays with the seeded component",
					spec.Name.Name, name.Name),
			})
		}
	}
	return diags
}

// checkSharedSource flags two rand.New calls fed by the same Source
// identifier within one function body.
func checkSharedSource(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pkg, call)
		if fn == nil || !isRandPkg(fn.Pkg()) || fn.Name() != "New" || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if seen[obj] {
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(call.Pos()),
				Rule: RuleRNG,
				Msg: fmt.Sprintf("source %q feeds more than one rand.New stream; two Rands over one Source interleave draws and become order-sensitive",
					obj.Name()),
			})
		}
		seen[obj] = true
		return true
	})
	return diags
}

// calleeOf resolves the function object a call targets, if statically known.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	default:
		return nil
	}
}

// isRandPkg reports whether p is math/rand or math/rand/v2.
func isRandPkg(p *types.Package) bool {
	if p == nil {
		return false
	}
	return p.Path() == "math/rand" || p.Path() == "math/rand/v2"
}

// randTypeNames are the stream/state types of math/rand and math/rand/v2.
var randTypeNames = map[string]bool{
	"Rand":     true,
	"Source":   true,
	"Source64": true,
	"PCG":      true,
	"ChaCha8":  true,
	"Zipf":     true,
}

// typeContainsRand reports whether t embeds an RNG stream anywhere in its
// structure, traversing into named types' underlying structs. Used for
// package-level variables, where transitively-owned stream state is still
// package state.
func typeContainsRand(t types.Type) bool {
	return containsRand(t, true, make(map[types.Type]bool))
}

// typeIsRandStream is the shallow form used for exported fields and results:
// it recognizes rand types reached through type constructors (pointer,
// slice, map, ...) but does NOT enter non-rand named types. A constructor
// returning *Node is handing over a component that privately OWNS a stream —
// that is the ownership idiom, not a leak; only surfacing the stream itself
// is.
func typeIsRandStream(t types.Type) bool {
	return containsRand(t, false, make(map[types.Type]bool))
}

func containsRand(t types.Type, deep bool, visited map[types.Type]bool) bool {
	if t == nil || visited[t] {
		return false
	}
	visited[t] = true
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj != nil && isRandPkg(obj.Pkg()) && randTypeNames[obj.Name()] {
			return true
		}
		if !deep {
			return false
		}
		return containsRand(t.Underlying(), deep, visited)
	case *types.Pointer:
		return containsRand(t.Elem(), deep, visited)
	case *types.Slice:
		return containsRand(t.Elem(), deep, visited)
	case *types.Array:
		return containsRand(t.Elem(), deep, visited)
	case *types.Map:
		return containsRand(t.Key(), deep, visited) || containsRand(t.Elem(), deep, visited)
	case *types.Chan:
		return containsRand(t.Elem(), deep, visited)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsRand(t.Field(i).Type(), deep, visited) {
				return true
			}
		}
	case *types.Interface:
		// rand.Source is itself an interface (caught as Named above);
		// arbitrary interfaces are not streams.
	}
	return false
}
