package lint

// The effect-purity pass: a summary-based interprocedural effect analysis
// that replaces the pattern-scoped no-wallclock / no-global-rand / map-range
// passes of earlier lrlint versions with one whole-program guarantee.
//
// Every declared function gets an effect set over the six-element lattice
//
//	{wallclock, rand, maporder, fs, net, spawn}
//
// computed in two layers:
//
//   - intrinsic effects are syntactic facts of the body itself (a time.Now
//     reference, a go statement, a map range whose body fails the
//     order-insensitivity proof in maprange.go, ...), collected once per
//     package and cached — the same packages are re-analyzed a dozen times
//     by the selfbench harness;
//
//   - the summary is the least fixpoint of
//     summary(F) = (intrinsic(F) ∪ ⋃ summary(callee)) &^ declared(F)
//     over the module flow graph (static calls, function-value references,
//     the functions stored in callback fields a body reads, interface
//     dispatch expanded through the implementers table), computed
//     SCC by SCC in reverse topological order so recursion converges.
//
// declared(F) is the mask of a //lrlint:effects(e1,e2) <reason> directive on
// F's declaration: a justified boundary. Masking applies to the summary, so
// a declared effect is excused for F *and* for everything F's callers reach
// only through F — the harness can declare its timeout timer once instead of
// every caller re-justifying it.
//
// Findings come from two sources, deduplicated by construction:
//
//   - scope findings preserve the old passes' coverage exactly: a wallclock
//     intrinsic in an internal/ package, a global-rand intrinsic anywhere,
//     an order-sensitive map range in an OrderedPackages package — reported
//     at the offending expression unless the enclosing function declares the
//     effect;
//
//   - rooted findings certify the deterministic core: a forward propagation
//     from Config.EffectRoots (sim.Engine.Run and the experiment entry
//     points) carries the set of still-denied effects through the flow
//     graph, stopping per effect at declaring boundaries; any reachable
//     function whose unmasked intrinsics intersect the live set is a
//     finding, positioned at the intrinsic site — skipped when a scope
//     finding already covers that (effect, package), so nothing is reported
//     twice.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// effect is one element of the effect lattice.
type effect uint8

const (
	effWallclock effect = iota
	effRand
	effMapOrder
	effFS
	effNet
	effSpawn
	numEffects
)

// effectNames maps effects to the names used in //lrlint:effects(...)
// directives and findings, in canonical (bit) order.
var effectNames = [numEffects]string{
	"wallclock", "rand", "maporder", "fs", "net", "spawn",
}

// effectByName is the inverse of effectNames.
var effectByName = func() map[string]effect {
	m := make(map[string]effect, numEffects)
	for e, name := range effectNames {
		m[name] = effect(e)
	}
	return m
}()

// effectSet is a bitset over the effect lattice; join is bitwise or.
type effectSet uint16

const allEffects = effectSet(1<<numEffects) - 1

func (s effectSet) has(e effect) bool       { return s&(1<<e) != 0 }
func (s effectSet) with(e effect) effectSet { return s | 1<<e }

// String renders the set in canonical order, for directives and messages.
func (s effectSet) String() string {
	var names []string
	for e := effect(0); e < numEffects; e++ {
		if s.has(e) {
			names = append(names, effectNames[e])
		}
	}
	return strings.Join(names, ",")
}

// effectDecl is one parsed //lrlint:effects(...) directive attached to a
// function declaration.
type effectDecl struct {
	mask effectSet
	pos  token.Position
}

// effectSite is one intrinsic-effect occurrence in source.
type effectSite struct {
	eff  effect
	pos  token.Position
	what string // "time.Now reads the wall clock", for messages
}

// pkgIntrinsics holds a package's intrinsic effect facts: sites grouped by
// enclosing declared function, plus loose sites in package-level
// initializers. The contents depend only on the package's AST and types, so
// they are cached across Run calls (the selfbench harness re-runs the
// analyzer once per rule over the same packages).
type pkgIntrinsics struct {
	byFunc map[*ast.FuncDecl][]effectSite
	loose  []effectSite
}

var intrinsicCache sync.Map // *Package -> *pkgIntrinsics

// wallclockFuncs are the package time functions that read or wait on the
// wall clock. Pure conversions and formatting (time.Duration,
// Duration.String, ...) stay legal.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
}

// globalRandAllowed are the package-level math/rand functions that do NOT
// draw from the process-global source: constructors for explicitly seeded
// streams. Everything else at package level (rand.Intn, rand.Float64,
// rand.Shuffle, rand.Perm, ...) consumes the global source, whose state is
// shared across the process and seeded differently every run.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes a *Rand argument; no global state
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

// fsFuncs are the package os functions that touch the filesystem. Process
// metadata reads (os.Getenv, os.Args) are left out: they are stable within
// a run.
var fsFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "Chmod": true, "Chtimes": true,
	"Symlink": true, "Link": true, "Getwd": true, "TempDir": true,
	"UserHomeDir": true,
}

// intrinsicsOf computes (or fetches) the package's intrinsic effect sites.
func intrinsicsOf(pkg *Package) *pkgIntrinsics {
	if v, ok := intrinsicCache.Load(pkg); ok {
		return v.(*pkgIntrinsics)
	}
	pin := &pkgIntrinsics{byFunc: make(map[*ast.FuncDecl][]effectSite)}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			record := func(s effectSite) {
				if fd != nil {
					pin.byFunc[fd] = append(pin.byFunc[fd], s)
				} else {
					pin.loose = append(pin.loose, s)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if s, ok := selectorEffect(pkg, n); ok {
						record(s)
					}
				case *ast.GoStmt:
					record(effectSite{
						eff:  effSpawn,
						pos:  pkg.Fset.Position(n.Pos()),
						what: "go statement forks execution off the deterministic event loop",
					})
				case *ast.RangeStmt:
					t := pkg.Info.TypeOf(n.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					if orderInsensitive(n, pkg.Info) {
						return true
					}
					record(effectSite{
						eff:  effMapOrder,
						pos:  pkg.Fset.Position(n.Pos()),
						what: "map iteration order is randomized",
					})
				}
				return true
			})
		}
	}
	actual, _ := intrinsicCache.LoadOrStore(pkg, pin)
	return actual.(*pkgIntrinsics)
}

// selectorEffect classifies a selector reference to an external function as
// an intrinsic effect: wall-clock reads, global-rand draws, crypto/rand
// entropy, filesystem and network touches.
func selectorEffect(pkg *Package, sel *ast.SelectorExpr) (effectSite, bool) {
	if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok {
		// crypto/rand.Reader is a package variable, not a function, but
		// handing it to a signer draws fresh entropy all the same.
		if v.Pkg() != nil && v.Pkg().Path() == "crypto/rand" && v.Name() == "Reader" {
			return effectSite{
				eff:  effRand,
				pos:  pkg.Fset.Position(sel.Pos()),
				what: "crypto/rand.Reader draws fresh entropy",
			}, true
		}
		return effectSite{}, false
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return effectSite{}, false
	}
	path := obj.Pkg().Path()
	pos := pkg.Fset.Position(sel.Pos())
	switch {
	case path == "time" && wallclockFuncs[obj.Name()]:
		return effectSite{
			eff:  effWallclock,
			pos:  pos,
			what: "time." + obj.Name() + " reads the wall clock",
		}, true
	case path == "math/rand" || path == "math/rand/v2":
		// Methods (receiver non-nil) operate on an explicit stream.
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return effectSite{}, false
		}
		if globalRandAllowed[obj.Name()] {
			return effectSite{}, false
		}
		return effectSite{
			eff:  effRand,
			pos:  pos,
			what: "rand." + obj.Name() + " uses the process-global source",
		}, true
	case path == "crypto/rand":
		return effectSite{
			eff:  effRand,
			pos:  pos,
			what: "crypto/rand." + obj.Name() + " draws fresh entropy",
		}, true
	case path == "os" && fsFuncs[obj.Name()]:
		return effectSite{
			eff:  effFS,
			pos:  pos,
			what: "os." + obj.Name() + " touches the filesystem",
		}, true
	case path == "net" || path == "net/http":
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return effectSite{}, false
		}
		return effectSite{
			eff:  effNet,
			pos:  pos,
			what: path + "." + obj.Name() + " performs real network I/O",
		}, true
	}
	return effectSite{}, false
}

// scopeCovered reports whether the effect falls under the legacy per-package
// scope policy, in which case a scope finding is emitted at every intrinsic
// site and the rooted reporter stays quiet for that (effect, package).
func scopeCovered(cfg Config, e effect, pkgPath string) bool {
	switch e {
	case effWallclock:
		return isInternal(pkgPath)
	case effRand:
		return true
	case effMapOrder:
		return cfg.inScope(pkgPath, cfg.OrderedPackages)
	default:
		return false
	}
}

// scopeMsg renders a scope finding's message for the given intrinsic site.
func scopeMsg(s effectSite) string {
	switch s.eff {
	case effWallclock:
		return s.what + "; simulated code must use virtual sim.Time"
	case effRand:
		return s.what + "; thread an explicitly seeded rand.New(rand.NewSource(seed)) stream instead"
	case effMapOrder:
		return s.what + "; iterate detmap.SortedKeys or justify with //lrlint:ignore " + RuleEffectPurity + " <reason>"
	default:
		return s.what
	}
}

// effectFacts is the per-function result of the interprocedural analysis.
type effectFacts struct {
	intrinsic effectSet // unmasked own effects
	declared  effectSet // //lrlint:effects mask, zero without a directive
	full      effectSet // intrinsic ∪ callee summaries, before masking
	summary   effectSet // full &^ declared; what callers inherit
	live      effectSet // denied effects still live here from a root
	via       string    // root that first reached this function
}

// checkEffects runs the effect-purity pass over the module index.
func checkEffects(idx *modIndex, decls map[*ast.FuncDecl]*effectDecl) []Diagnostic {
	facts := make(map[*funcInfo]*effectFacts, len(idx.order))
	for _, fi := range idx.order {
		f := &effectFacts{}
		for _, s := range intrinsicsOf(fi.pkg).byFunc[fi.decl] {
			f.intrinsic = f.intrinsic.with(s.eff)
		}
		if d := decls[fi.decl]; d != nil {
			f.declared = d.mask
		}
		facts[fi] = f
	}

	computeSummaries(idx, facts)
	propagateLive(idx, facts)

	var diags []Diagnostic

	// Scope findings: legacy per-package coverage, at every intrinsic site,
	// unless the enclosing function declares the effect. Loose sites
	// (package-level initializers) have no declaration to consult.
	for _, pkg := range idx.pkgs {
		pin := intrinsicsOf(pkg)
		for _, s := range pin.loose {
			if scopeCovered(idx.cfg, s.eff, pkg.ImportPath) {
				diags = append(diags, Diagnostic{Pos: s.pos, Rule: RuleEffectPurity, Msg: scopeMsg(s)})
			}
		}
	}
	for _, fi := range idx.order {
		f := facts[fi]
		for _, s := range intrinsicsOf(fi.pkg).byFunc[fi.decl] {
			if f.declared.has(s.eff) {
				continue
			}
			if scopeCovered(idx.cfg, s.eff, fi.pkg.ImportPath) {
				diags = append(diags, Diagnostic{Pos: s.pos, Rule: RuleEffectPurity, Msg: scopeMsg(s)})
			}
		}
	}

	// Rooted findings: reachable unmasked intrinsics outside the scope
	// policy, positioned at the first site of each offending effect.
	for _, fi := range idx.order {
		f := facts[fi]
		bad := f.live & f.intrinsic &^ f.declared
		if bad == 0 {
			continue
		}
		reported := effectSet(0)
		for _, s := range intrinsicsOf(fi.pkg).byFunc[fi.decl] {
			if !bad.has(s.eff) || reported.has(s.eff) || scopeCovered(idx.cfg, s.eff, fi.pkg.ImportPath) {
				continue
			}
			reported = reported.with(s.eff)
			diags = append(diags, Diagnostic{
				Pos:  s.pos,
				Rule: RuleEffectPurity,
				Msg: fmt.Sprintf("%s in %s, which is reachable from deterministic root %s; make it pure or declare //lrlint:effects(%s) <reason> on the justified boundary",
					s.what, fi.qname, f.via, effectNames[s.eff]),
			})
		}
	}

	// A declared effect that neither the function nor anything it reaches
	// produces is stale, exactly like an unused ignore directive.
	if idx.cfg.UnusedIgnores && idx.cfg.ruleEnabled(RuleUnusedIgnore) {
		for _, fi := range idx.order {
			d := decls[fi.decl]
			if d == nil {
				continue
			}
			unused := d.mask &^ facts[fi].full
			for e := effect(0); e < numEffects; e++ {
				if unused.has(e) {
					diags = append(diags, Diagnostic{
						Pos:  d.pos,
						Rule: RuleUnusedIgnore,
						Msg:  fmt.Sprintf("directive declares effect %q that neither this function nor its callees produce; remove it", effectNames[e]),
					})
				}
			}
		}
	}
	return diags
}

// computeSummaries runs the lattice fixpoint: Tarjan SCC condensation of the
// flow graph, then one pass over the SCCs in the reverse-topological order
// Tarjan emits them (callees' components complete before callers'), with an
// inner iteration per component until recursion converges. Joins are
// monotone over a finite lattice, so the fixpoint is reached and is
// independent of visit order.
func computeSummaries(idx *modIndex, facts map[*funcInfo]*effectFacts) {
	sccs := condense(idx)
	for _, comp := range sccs {
		for changed := true; changed; {
			changed = false
			for _, fi := range comp {
				f := facts[fi]
				full := f.intrinsic
				for _, ci := range idx.flowEdges(fi) {
					full |= facts[ci].summary
				}
				if full != f.full {
					f.full = full
					f.summary = full &^ f.declared
					changed = true
				}
			}
		}
	}
}

// condense returns the strongly connected components of the module flow
// graph in reverse topological order (every cross-component edge points from
// a later component to an earlier one). Iterative Tarjan, so pathological
// call chains cannot overflow the goroutine stack.
func condense(idx *modIndex) [][]*funcInfo {
	type nodeState struct {
		index, lowlink int
		onStack        bool
	}
	state := make(map[*funcInfo]*nodeState, len(idx.order))
	var stack []*funcInfo
	var sccs [][]*funcInfo
	next := 1

	type frame struct {
		fi    *funcInfo
		edges []*funcInfo
		i     int
	}
	for _, root := range idx.order {
		if state[root] != nil {
			continue
		}
		work := []frame{{fi: root, edges: idx.flowEdges(root)}}
		st := &nodeState{index: next, lowlink: next}
		next++
		state[root] = st
		stack = append(stack, root)
		st.onStack = true
		for len(work) > 0 {
			fr := &work[len(work)-1]
			cur := state[fr.fi]
			advanced := false
			for fr.i < len(fr.edges) {
				e := fr.edges[fr.i]
				es := state[e]
				if es == nil {
					fr.i++ // return here to take e's lowlink after it pops
					es = &nodeState{index: next, lowlink: next}
					next++
					state[e] = es
					stack = append(stack, e)
					es.onStack = true
					work = append(work, frame{fi: e, edges: idx.flowEdges(e)})
					advanced = true
					break
				}
				if es.onStack {
					if es.index < cur.lowlink {
						cur.lowlink = es.index
					}
				}
				fr.i++
			}
			if advanced {
				continue
			}
			if cur.lowlink == cur.index {
				var comp []*funcInfo
				for {
					n := len(stack) - 1
					fi := stack[n]
					stack = stack[:n]
					state[fi].onStack = false
					comp = append(comp, fi)
					if fi == fr.fi {
						break
					}
				}
				sccs = append(sccs, comp)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := state[work[len(work)-1].fi]
				if cur.lowlink < parent.lowlink {
					parent.lowlink = cur.lowlink
				}
			}
		}
	}
	return sccs
}

// propagateLive carries the denied-effect set forward from the configured
// roots through the flow graph, masking each declaring boundary's effects so
// a justified boundary excuses its whole subtree for those effects. BFS in
// root order keeps the attributed root deterministic.
func propagateLive(idx *modIndex, facts map[*funcInfo]*effectFacts) {
	var queue []*funcInfo
	for _, root := range idx.cfg.EffectRoots {
		fi := idx.byName[root]
		if fi == nil {
			continue
		}
		f := facts[fi]
		if f.live != allEffects {
			f.live = allEffects
			f.via = fi.qname
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		f := facts[fi]
		out := f.live &^ f.declared
		if out == 0 {
			continue
		}
		for _, ci := range idx.flowEdges(fi) {
			cf := facts[ci]
			if cf.live|out == cf.live {
				continue
			}
			if cf.live == 0 {
				cf.via = f.via
			}
			cf.live |= out
			queue = append(queue, ci)
		}
	}
}
