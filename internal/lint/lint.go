// Package lint implements lrlint, a from-scratch static-analysis suite that
// machine-checks the determinism, safety and hot-path performance invariants
// the simulator's claims rest on. It is built only on the standard library
// (go/ast, go/parser, go/token, go/types) per the repo's stdlib-only rule;
// the flow-sensitive passes run over an in-tree SSA-lite IR (statement-level
// CFGs with dominance and natural-loop analysis, see cfg.go / dom.go) plus a
// module-wide call/field/implements index (modindex.go).
//
// Eleven analyzer passes run over every non-test file of the module:
//
//   - effect-purity: a summary-based interprocedural effect analysis. Every
//     function gets an effect set over {wallclock, rand, maporder, fs, net,
//     spawn} as a lattice fixpoint over the module flow graph (static calls,
//     function-value references, interface dispatch) with SCC condensation
//     for recursion. It subsumes the old pattern-scoped no-wallclock /
//     no-global-rand / map-range passes (their per-package scopes are kept
//     as scope findings) and additionally certifies every function reachable
//     from the deterministic entry points (Config.EffectRoots: sim.Engine.Run
//     and the experiment runners) free of all six effects. Justified
//     boundaries declare their effects with //lrlint:effects(...); the
//     declaration masks the effect for the function and its callers.
//     See effects.go.
//
//   - scan-complexity: classifies loop trip counts over the population
//     lattice {const < packets < pages < neighbors < nodes} by binding
//     collection types and producer calls (Config.PopulationTypes/Calls,
//     //lrlint:population), interprocedurally through parameters and struct
//     fields. O(nodes) loops reachable from the per-event roots
//     (Config.EventRoots, //lrlint:eventroot) and O(nodes) loops nested in
//     O(nodes) loops are findings — the static gate for the 100k-node scale
//     work. See scancomplexity.go.
//
//   - unchecked-errors: in internal/crypt/... and internal/erasure/... a
//     dropped error return means silently accepting a forged or corrupt
//     packet, so every error must be consumed. Methods on values
//     implementing hash.Hash are exempt (Write is specified to never return
//     an error).
//
//   - verify-before-use: in the protocol packages, data tainted by a
//     received packet must pass an internal/crypt verification on every path
//     before it is stored in node state or fed to an internal/erasure
//     decoder. Intra-procedural dataflow over go/types; see taint.go.
//
//   - lock-discipline: in internal/harness and internal/experiment, every
//     goroutine write to captured shared state must be dominated by the
//     acquire of the owning mutex — a CFG-level must-held lockset analysis
//     replacing the earlier syntactic captured-write scan. Results still
//     flow over channels to the ordered-merge goroutine. See
//     lockdiscipline.go.
//
//   - rng-stream-discipline: *rand.Rand / rand.Source values must not live
//     in package-level variables, leak through exported fields or results,
//     feed two streams from one source, or be constructed from constant
//     seeds. See rng.go.
//
//   - trace-sim-time: in the trace packages, event structs and recording
//     signatures must carry virtual sim.Time timestamps, never wall-clock
//     time.Time — a pre-read wall timestamp smuggled in from outside the
//     no-wallclock scope would still tie trace bytes to the host. See
//     tracetime.go.
//
//   - alloc-hotpath: functions reachable from the declared hot roots (GF(256)
//     multiply-accumulate, RS encode/decode, packet marshal/unmarshal, radio
//     delivery, crypt verification) or carrying a //lrlint:hotpath marker
//     must not allocate per loop iteration, grow unpreallocated appends in
//     loops, box concrete values into interface parameters, build closures or
//     defers per iteration, or call variadic functions inside loops. See
//     allochot.go.
//
//   - rng-provenance: every *rand.Rand consumed in sim code must provably
//     originate from a seeded rand.New construction, traced cross-package
//     through locals, struct fields, parameters and interface dispatch —
//     closing the intra-package gap left by rng-stream-discipline. See
//     provenance.go.
//
//   - unused-ignore: an //lrlint:ignore directive that suppresses no finding
//     of an enabled rule is itself a finding (opt-in via Config.UnusedIgnores;
//     on in check.sh), so justifications cannot outlive the code they excuse.
//
// A finding may be suppressed with a directive on the same line, on the line
// immediately above, or on the line immediately above the statement the
// finding sits in (so a directive above a multi-line statement covers the
// whole statement):
//
//	//lrlint:ignore <rule> <reason>
//
// The rule must name a catalog entry and the reason is mandatory; a directive
// missing either is itself a finding. The other directive forms attach to
// declarations (doc comment or the line immediately above):
//
//	//lrlint:hotpath [reason]
//
// marks a function an alloc-hotpath root in addition to the configured ones;
//
//	//lrlint:effects(<effect>[,<effect>...]) <reason>
//
// declares a function a justified effect boundary (the reason is mandatory,
// and a declared effect the function does not actually have is an
// unused-ignore finding);
//
//	//lrlint:eventroot [reason]
//
// marks a function a per-event root for scan-complexity; and
//
//	//lrlint:population <class>
//
// on a type declaration binds that type to a population-lattice class
// (const, packets, pages, neighbors, nodes).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding as "file:line:col rule: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Rule names, used in output and in //lrlint:ignore directives.
const (
	RuleEffectPurity   = "effect-purity"
	RuleScanComplexity = "scan-complexity"
	RuleErrcheck       = "unchecked-error"
	RuleTaint          = "verify-before-use"
	RuleLockDiscipline = "lock-discipline"
	RuleRNG            = "rng-stream-discipline"
	RuleTraceTime      = "trace-sim-time"
	RuleAllocHot       = "alloc-hotpath"
	RuleRNGProv        = "rng-provenance"
	RuleUnusedIgnore   = "unused-ignore"
	RuleDirective      = "directive"
)

// AllRules lists every rule name in catalog order.
var AllRules = []string{
	RuleEffectPurity,
	RuleScanComplexity,
	RuleErrcheck,
	RuleTaint,
	RuleLockDiscipline,
	RuleRNG,
	RuleTraceTime,
	RuleAllocHot,
	RuleRNGProv,
	RuleUnusedIgnore,
	RuleDirective,
}

// KnownRule reports whether name is in the rule catalog.
func KnownRule(name string) bool {
	for _, r := range AllRules {
		if r == name {
			return true
		}
	}
	return false
}

// Config scopes the passes to package trees. Paths are module-relative
// prefixes: an entry "internal/core" covers the package at that path and
// everything below it.
type Config struct {
	// ModulePath is the module's import-path prefix (from go.mod).
	ModulePath string
	// OrderedPackages lists the packages whose event scheduling or packet
	// emission makes map-iteration order observable; map-range-determinism
	// applies there.
	OrderedPackages []string
	// ErrorCriticalPackages lists the packages where a swallowed error means
	// accepting forged or corrupt data; unchecked-errors applies there.
	ErrorCriticalPackages []string
	// TaintPackages lists the protocol packages where received-packet data
	// must be verified before it is stored or decoded; verify-before-use
	// applies there.
	TaintPackages []string
	// ConcurrencyPackages lists the packages with real goroutine concurrency;
	// lock-discipline applies there.
	ConcurrencyPackages []string
	// TracePackages lists the packages defining trace records and recording
	// APIs; trace-sim-time applies there: event structs and recording
	// signatures must carry sim.Time, never wall-clock time.Time.
	TracePackages []string
	// HotPathPackages lists the package trees whose hot-reachable functions
	// alloc-hotpath reports on. Functions outside these trees are still
	// traversed for reachability but only report when they carry a
	// //lrlint:hotpath marker themselves.
	HotPathPackages []string
	// HotRoots names the hot-path entry points as module-relative qualified
	// names: "pkg/path.Func" or "pkg/path.Recv.Method" (pointer receivers
	// written without the star). Everything statically reachable from a root
	// is hot.
	HotRoots []string
	// EffectRoots names the deterministic entry points for effect-purity:
	// everything reachable from them over the flow graph must be free of
	// all six effects, up to declared //lrlint:effects boundaries.
	EffectRoots []string
	// EventRoots names the per-event entry points for scan-complexity:
	// O(nodes) loops reachable from them are findings.
	EventRoots []string
	// PopulationTypes binds named types (module-relative "pkg/path.Type")
	// to population classes: a map keyed by — or a slice of — a bound type
	// is a collection of that class.
	PopulationTypes map[string]string
	// PopulationCalls binds producer functions to the class of their result
	// ("internal/topo.Graph.Neighbors" -> "neighbors").
	PopulationCalls map[string]string
	// PopulationPropagate lists transparent wrappers whose result class is
	// the join of their argument classes (detmap.SortedKeys).
	PopulationPropagate []string
	// Rules, when non-empty, restricts the run to the named rules (the
	// directive pass always runs, so malformed directives never go dark).
	Rules []string
	// UnusedIgnores enables the unused-ignore pass: directives naming an
	// enabled rule that suppress no finding become findings themselves.
	UnusedIgnores bool
	// TrimPrefix, when non-empty, is stripped from diagnostic file names so
	// output and golden files are stable across checkouts.
	TrimPrefix string
}

// ruleEnabled applies the Rules filter.
func (c Config) ruleEnabled(rule string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	for _, r := range c.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// DefaultConfig returns the repo's production scoping: the packages that
// schedule events, emit packets or merge experiment records, the
// crypto/erasure trees, and the hot-path roots of the per-packet pipeline.
func DefaultConfig(modulePath string) Config {
	return Config{
		ModulePath:    modulePath,
		UnusedIgnores: true,
		OrderedPackages: []string{
			"internal/sim",
			"internal/core",
			"internal/dissem",
			"internal/deluge",
			"internal/radio",
			"internal/trickle",
			"internal/harness",
			"internal/trace",
			"internal/runstore",
			"internal/served",
		},
		ErrorCriticalPackages: []string{
			"internal/crypt",
			"internal/erasure",
		},
		TaintPackages: []string{
			"internal/core",
			"internal/dissem",
			"internal/deluge",
			"internal/rateless",
			"internal/packet",
		},
		ConcurrencyPackages: []string{
			"internal/harness",
			"internal/experiment",
			"internal/obs",
			"internal/runstore",
			"internal/served",
		},
		TracePackages: []string{
			"internal/trace",
		},
		HotPathPackages: []string{
			"internal/erasure",
			"internal/packet",
			"internal/crypt",
			"internal/obs",
			"internal/radio",
		},
		HotRoots: []string{
			"internal/erasure/gf256.MulSlice",
			"internal/erasure/rs.Code.Encode",
			"internal/erasure/rs.Code.EncodeInto",
			"internal/erasure/rs.Code.Decode",
			"internal/erasure/rs.Code.DecodeInto",
			"internal/packet.Adv.Marshal",
			"internal/packet.SNACK.Marshal",
			"internal/packet.Data.Marshal",
			"internal/packet.Sig.Marshal",
			"internal/packet.Unmarshal",
			"internal/radio.Network.deliver",
			"internal/crypt/sign.PublicKey.Verify",
			"internal/crypt/puzzle.Verify",
			"internal/crypt/puzzle.VerifyKey",
			"internal/crypt/merkle.Verify",
		},
		EffectRoots: []string{
			"internal/sim.Engine.Run",
			"internal/experiment.Run",
			"internal/experiment.RunGrid",
		},
		EventRoots: []string{
			"internal/radio.Network.Broadcast",
			"internal/radio.Network.deliver",
			"internal/fault.Engine.apply",
			"internal/trickle.Trickle.beginInterval",
		},
		PopulationTypes: map[string]string{
			"internal/packet.NodeID":  "nodes",
			"internal/radio.Receiver": "nodes",
			"internal/topo.Point":     "nodes",
			"internal/topo.Link":      "neighbors",
		},
		PopulationCalls: map[string]string{
			"internal/topo.Graph.NumNodes":         "nodes",
			"internal/radio.Network.NumNodes":      "nodes",
			"internal/radio.FaultOverlay.NumNodes": "nodes",
			"internal/topo.Graph.Neighbors":        "neighbors",
			"internal/radio.Network.Neighbors":     "neighbors",
		},
		PopulationPropagate: []string{
			"internal/detmap.SortedKeys",
		},
	}
}

// inScope reports whether the package import path falls under one of the
// module-relative prefixes.
func (c Config) inScope(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		full := c.ModulePath + "/" + p
		if pkgPath == full || strings.HasPrefix(pkgPath, full+"/") {
			return true
		}
	}
	return false
}

// isInternal reports whether the package lives under an internal/ tree.
func isInternal(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") || strings.HasSuffix(pkgPath, "/internal")
}

// Run applies every pass to every package and returns the surviving
// findings sorted by position. Directive-suppressed findings are removed;
// malformed directives are reported; with Config.UnusedIgnores, so are
// directives that suppressed nothing. Per-package passes run concurrently —
// each only reads its own package's immutable AST and type info — then the
// module-level passes (alloc-hotpath, rng-provenance) run over a shared
// module index, and the final position sort makes the output order
// deterministic regardless of scheduling.
func Run(pkgs []*Package, cfg Config) []Diagnostic {
	type pkgResult struct {
		dirs       directiveIndex
		markers    map[*ast.FuncDecl]bool
		effects    map[*ast.FuncDecl]*effectDecl
		eventRoots map[*ast.FuncDecl]bool
		popTypes   map[*types.TypeName]popClass
		raw        []Diagnostic // pre-suppression findings
		bad        []Diagnostic // malformed directives; never suppressible
	}
	results := make([]pkgResult, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			r := &results[i]
			r.dirs, r.bad = collectDirectives(pkg)
			var badDirs []Diagnostic
			r.markers, badDirs = collectHotMarkers(pkg)
			r.bad = append(r.bad, badDirs...)
			r.effects, badDirs = collectEffectDecls(pkg)
			r.bad = append(r.bad, badDirs...)
			r.eventRoots, badDirs = collectEventRoots(pkg)
			r.bad = append(r.bad, badDirs...)
			r.popTypes, badDirs = collectPopDirectives(pkg)
			r.bad = append(r.bad, badDirs...)
			r.raw = runPackage(pkg, cfg)
		}(i, pkg)
	}
	wg.Wait()

	// Merge the per-package directive indexes; file names are absolute and
	// unique per package, so this is a disjoint union.
	merged := make(directiveIndex)
	markers := make(map[*ast.FuncDecl]bool)
	effDecls := make(map[*ast.FuncDecl]*effectDecl)
	eventRoots := make(map[*ast.FuncDecl]bool)
	popTypes := make(map[*types.TypeName]popClass)
	var raw, bad []Diagnostic
	for _, r := range results {
		for file, lines := range r.dirs {
			merged[file] = lines
		}
		for d := range r.markers {
			markers[d] = true
		}
		for d, ed := range r.effects {
			effDecls[d] = ed
		}
		for d := range r.eventRoots {
			eventRoots[d] = true
		}
		for tn, cls := range r.popTypes {
			popTypes[tn] = cls
		}
		raw = append(raw, r.raw...)
		bad = append(bad, r.bad...)
	}

	needIndex := cfg.ruleEnabled(RuleAllocHot) || cfg.ruleEnabled(RuleRNGProv) ||
		cfg.ruleEnabled(RuleEffectPurity) || cfg.ruleEnabled(RuleScanComplexity)
	if needIndex {
		idx := buildModIndex(pkgs, cfg, markers)
		if cfg.ruleEnabled(RuleAllocHot) {
			raw = append(raw, checkAllocHot(idx)...)
		}
		if cfg.ruleEnabled(RuleRNGProv) {
			raw = append(raw, checkProvenance(idx)...)
		}
		if cfg.ruleEnabled(RuleEffectPurity) {
			raw = append(raw, checkEffects(idx, effDecls)...)
		}
		if cfg.ruleEnabled(RuleScanComplexity) {
			raw = append(raw, checkScanComplexity(idx, eventRoots, popTypes)...)
		}
	}

	diags := bad
	for _, d := range raw {
		if !merged.suppresses(d) {
			diags = append(diags, d)
		}
	}
	if cfg.UnusedIgnores && cfg.ruleEnabled(RuleUnusedIgnore) {
		diags = append(diags, unusedIgnoreFindings(merged, cfg)...)
	}

	for i := range diags {
		if cfg.TrimPrefix != "" {
			if rel, err := filepath.Rel(cfg.TrimPrefix, diags[i].Pos.Filename); err == nil {
				diags[i].Pos.Filename = rel
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// runPackage applies the scoped, rule-filtered per-package passes and
// returns raw findings (unsuppressed, unsorted, untrimmed).
func runPackage(pkg *Package, cfg Config) []Diagnostic {
	var raw []Diagnostic
	if cfg.ruleEnabled(RuleErrcheck) && cfg.inScope(pkg.ImportPath, cfg.ErrorCriticalPackages) {
		raw = append(raw, checkErrors(pkg)...)
	}
	if cfg.ruleEnabled(RuleTaint) && cfg.inScope(pkg.ImportPath, cfg.TaintPackages) {
		raw = append(raw, checkTaint(pkg, cfg)...)
	}
	if cfg.ruleEnabled(RuleLockDiscipline) && cfg.inScope(pkg.ImportPath, cfg.ConcurrencyPackages) {
		raw = append(raw, checkLockDiscipline(pkg)...)
	}
	if cfg.ruleEnabled(RuleRNG) {
		raw = append(raw, checkRNG(pkg)...)
	}
	if cfg.ruleEnabled(RuleTraceTime) && cfg.inScope(pkg.ImportPath, cfg.TracePackages) {
		raw = append(raw, checkTraceTime(pkg)...)
	}
	return raw
}

// directive is one parsed //lrlint:ignore comment. expandSpans copies the
// record onto every line a covered multi-line statement spans; the copies
// share the used flag so one suppression anywhere marks the directive live.
type directive struct {
	rule string
	pos  token.Position // the comment's own position, for unused-ignore
	used *bool
}

// directiveIndex maps file -> line -> directives in force on that line.
type directiveIndex map[string]map[int][]directive

// suppresses reports whether a directive for the finding's rule is in force
// on the finding's line or the line immediately above it, marking the
// matching directive used. Directives written above a multi-line statement
// are propagated onto every line of that statement by expandSpans, so they
// reach findings anywhere inside it.
func (idx directiveIndex) suppresses(d Diagnostic) bool {
	lines := idx[d.Pos.Filename]
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[ln] {
			if dir.rule == d.Rule {
				*dir.used = true
				return true
			}
		}
	}
	return false
}

// unusedIgnoreFindings reports every directive whose rule was enabled in
// this run but which suppressed nothing. Directives for disabled rules are
// skipped — a rule-filtered run must not declare the other rules'
// justifications stale.
func unusedIgnoreFindings(idx directiveIndex, cfg Config) []Diagnostic {
	seen := make(map[token.Position]bool)
	var out []Diagnostic
	for _, lines := range idx {
		for _, dirs := range lines {
			for _, dir := range dirs {
				if *dir.used || seen[dir.pos] || !cfg.ruleEnabled(dir.rule) {
					continue
				}
				seen[dir.pos] = true
				out = append(out, Diagnostic{
					Pos:  dir.pos,
					Rule: RuleUnusedIgnore,
					Msg:  fmt.Sprintf("directive suppresses no %s finding; remove it or restore the justification it excused", dir.rule),
				})
			}
		}
	}
	return out
}

const (
	directivePrefix  = "//lrlint:ignore"
	hotpathPrefix    = "//lrlint:hotpath"
	effectsPrefix    = "//lrlint:effects"
	eventrootPrefix  = "//lrlint:eventroot"
	populationPrefix = "//lrlint:population"
)

// collectDirectives scans every comment in the package for ignore
// directives, returning the index plus findings for malformed ones. A
// directive must name a catalog rule and give a reason; anything else is a
// finding rather than a silent no-op.
func collectDirectives(pkg *Package) (directiveIndex, []Diagnostic) {
	idx := make(directiveIndex)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, directivePrefix))
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: RuleDirective,
						Msg:  "malformed directive: want //lrlint:ignore <rule> <reason>",
					})
					continue
				}
				if !KnownRule(fields[0]) {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: RuleDirective,
						Msg:  fmt.Sprintf("directive names unknown rule %q; catalog: %s", fields[0], strings.Join(AllRules, ", ")),
					})
					continue
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int][]directive)
					idx[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], directive{rule: fields[0], pos: pos, used: new(bool)})
			}
		}
	}
	idx.expandSpans(pkg)
	return idx, bad
}

// declMarker is one prefix-matched comment resolved to the function
// declaration it annotates (decl nil when attached to nothing).
type declMarker struct {
	decl *ast.FuncDecl
	c    *ast.Comment
	pos  token.Position
}

// declMarkers scans for comments with the given prefix and resolves each to
// the function declaration it annotates: the comment must sit in the
// function's doc comment or on the line immediately above the declaration.
// Unattached markers come back with a nil decl so callers can report them —
// a floating marker would otherwise silently configure nothing.
func declMarkers(pkg *Package, prefix string) []declMarker {
	var out []declMarker
	for _, f := range pkg.Files {
		// Map each declaration's doc span and start line once per file.
		type declSpan struct {
			decl      *ast.FuncDecl
			docStart  token.Pos
			docEnd    token.Pos
			startLine int
		}
		var decls []declSpan
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ds := declSpan{decl: fd, startLine: pkg.Fset.Position(fd.Pos()).Line}
			if fd.Doc != nil {
				ds.docStart, ds.docEnd = fd.Doc.Pos(), fd.Doc.End()
			}
			decls = append(decls, ds)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				m := declMarker{c: c, pos: pkg.Fset.Position(c.Pos())}
				for _, ds := range decls {
					inDoc := ds.docStart != token.NoPos && c.Pos() >= ds.docStart && c.End() <= ds.docEnd
					if inDoc || m.pos.Line == ds.startLine-1 {
						m.decl = ds.decl
						break
					}
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// collectHotMarkers resolves //lrlint:hotpath markers to the declarations
// they root.
func collectHotMarkers(pkg *Package) (map[*ast.FuncDecl]bool, []Diagnostic) {
	marked := make(map[*ast.FuncDecl]bool)
	var bad []Diagnostic
	for _, m := range declMarkers(pkg, hotpathPrefix) {
		if m.decl == nil {
			bad = append(bad, Diagnostic{
				Pos:  m.pos,
				Rule: RuleDirective,
				Msg:  "//lrlint:hotpath marker is not attached to a function declaration",
			})
			continue
		}
		marked[m.decl] = true
	}
	return marked, bad
}

// collectEffectDecls parses //lrlint:effects(e1,e2) <reason> directives.
// The effect list and the reason are both mandatory; unknown effect names
// and unattached directives are findings.
func collectEffectDecls(pkg *Package) (map[*ast.FuncDecl]*effectDecl, []Diagnostic) {
	decls := make(map[*ast.FuncDecl]*effectDecl)
	var bad []Diagnostic
	for _, m := range declMarkers(pkg, effectsPrefix) {
		rest := strings.TrimPrefix(m.c.Text, effectsPrefix)
		paren := strings.Index(rest, ")")
		if !strings.HasPrefix(rest, "(") || paren < 0 || strings.TrimSpace(rest[paren+1:]) == "" {
			bad = append(bad, Diagnostic{
				Pos:  m.pos,
				Rule: RuleDirective,
				Msg:  "malformed directive: want //lrlint:effects(<effect>[,<effect>...]) <reason>",
			})
			continue
		}
		var mask effectSet
		valid := true
		for _, name := range strings.Split(rest[1:paren], ",") {
			e, ok := effectByName[strings.TrimSpace(name)]
			if !ok {
				bad = append(bad, Diagnostic{
					Pos:  m.pos,
					Rule: RuleDirective,
					Msg:  fmt.Sprintf("directive names unknown effect %q; effects: %s", strings.TrimSpace(name), allEffects.String()),
				})
				valid = false
				break
			}
			mask = mask.with(e)
		}
		if !valid {
			continue
		}
		if m.decl == nil {
			bad = append(bad, Diagnostic{
				Pos:  m.pos,
				Rule: RuleDirective,
				Msg:  "//lrlint:effects directive is not attached to a function declaration",
			})
			continue
		}
		if prev := decls[m.decl]; prev != nil {
			prev.mask |= mask
		} else {
			decls[m.decl] = &effectDecl{mask: mask, pos: m.pos}
		}
	}
	return decls, bad
}

// collectEventRoots resolves //lrlint:eventroot markers to the declarations
// they root for scan-complexity.
func collectEventRoots(pkg *Package) (map[*ast.FuncDecl]bool, []Diagnostic) {
	roots := make(map[*ast.FuncDecl]bool)
	var bad []Diagnostic
	for _, m := range declMarkers(pkg, eventrootPrefix) {
		if m.decl == nil {
			bad = append(bad, Diagnostic{
				Pos:  m.pos,
				Rule: RuleDirective,
				Msg:  "//lrlint:eventroot marker is not attached to a function declaration",
			})
			continue
		}
		roots[m.decl] = true
	}
	return roots, bad
}

// collectPopDirectives parses //lrlint:population <class> directives on type
// declarations: the comment must sit in the type's doc comment (or the
// GenDecl's) or on the line immediately above it.
func collectPopDirectives(pkg *Package) (map[*types.TypeName]popClass, []Diagnostic) {
	bound := make(map[*types.TypeName]popClass)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		type typeSpan struct {
			obj       *types.TypeName
			docStart  token.Pos
			docEnd    token.Pos
			startLine int
		}
		var specs []typeSpan
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
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
				tsp := typeSpan{obj: obj, startLine: pkg.Fset.Position(gd.Pos()).Line}
				if gd.Doc != nil {
					tsp.docStart, tsp.docEnd = gd.Doc.Pos(), gd.Doc.End()
				}
				if ts.Doc != nil {
					if tsp.docStart == token.NoPos || ts.Doc.Pos() < tsp.docStart {
						tsp.docStart = ts.Doc.Pos()
					}
					if ts.Doc.End() > tsp.docEnd {
						tsp.docEnd = ts.Doc.End()
					}
					tsp.startLine = pkg.Fset.Position(ts.Pos()).Line
				}
				specs = append(specs, tsp)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, populationPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, populationPrefix))
				if len(fields) != 1 {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: RuleDirective,
						Msg:  "malformed directive: want //lrlint:population <class>",
					})
					continue
				}
				cls, ok := popClassNames[fields[0]]
				if !ok {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: RuleDirective,
						Msg:  fmt.Sprintf("directive names unknown population class %q; classes: const, packets, pages, neighbors, nodes", fields[0]),
					})
					continue
				}
				attached := false
				for _, tsp := range specs {
					inDoc := tsp.docStart != token.NoPos && c.Pos() >= tsp.docStart && c.End() <= tsp.docEnd
					if inDoc || pos.Line == tsp.startLine-1 {
						bound[tsp.obj] = cls
						attached = true
						break
					}
				}
				if !attached {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: RuleDirective,
						Msg:  "//lrlint:population directive is not attached to a type declaration",
					})
				}
			}
		}
	}
	return bound, bad
}

// expandSpans propagates a directive written on (or immediately above) the
// first line of a multi-line SIMPLE statement onto every line the statement
// spans, so a finding positioned on a continuation line — e.g. an argument
// of a wrapped call — is still covered. Compound statements (if/for/switch
// and friends) are deliberately excluded: a directive above an if must not
// silence the whole body. Go-statement spans ARE covered, so one directive
// can bless a whole `go func() { ... }()` worker when justified.
func (idx directiveIndex) expandSpans(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.AssignStmt, *ast.ExprStmt, *ast.DeclStmt, *ast.ReturnStmt,
				*ast.SendStmt, *ast.IncDecStmt, *ast.GoStmt, *ast.DeferStmt,
				*ast.ValueSpec:
			default:
				return true
			}
			start := pkg.Fset.Position(n.Pos())
			end := pkg.Fset.Position(n.End())
			if end.Line <= start.Line {
				return true
			}
			lines := idx[start.Filename]
			if lines == nil {
				return true
			}
			var covering []directive
			covering = append(covering, lines[start.Line]...)
			covering = append(covering, lines[start.Line-1]...)
			if len(covering) == 0 {
				return true
			}
			for ln := start.Line + 1; ln <= end.Line; ln++ {
				lines[ln] = append(lines[ln], covering...)
			}
			return true
		})
	}
}

// walkNonTest visits every AST node of the package's (non-test) files.
func walkNonTest(pkg *Package, visit func(f *ast.File, n ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			return visit(f, n)
		})
	}
}
