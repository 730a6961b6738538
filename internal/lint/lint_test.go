package lint

import (
	"flag"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lrseluge/internal/detmap"
)

var update = flag.Bool("update", false, "rewrite golden expect.txt files")

// fixtureCases maps each fixture package to the import path it is loaded
// under; the path places it inside the pretend module "fix" so the
// production scoping of DefaultConfig applies (or deliberately does not).
var fixtureCases = []struct {
	dir        string
	importPath string
}{
	{"wallclock_bad", "fix/internal/wallclock_bad"},
	{"wallclock_clean", "fix/internal/wallclock_clean"},
	{"globalrand_bad", "fix/globalrand_bad"},
	{"globalrand_clean", "fix/globalrand_clean"},
	{"maprange_bad", "fix/internal/core/maprange_bad"},
	{"maprange_clean", "fix/internal/core/maprange_clean"},
	{"errcheck_bad", "fix/internal/crypt/errcheck_bad"},
	{"errcheck_clean", "fix/internal/crypt/errcheck_clean"},
	{"conc_bad", "fix/internal/harness/conc_bad"},
	{"conc_clean", "fix/internal/harness/conc_clean"},
	{"rng_bad", "fix/internal/rng_bad"},
	{"rng_clean", "fix/internal/rng_clean"},
	{"directive_span_clean", "fix/internal/directive_span_clean"},
	{"tracetime_bad", "fix/internal/trace/tracetime_bad"},
	{"tracetime_clean", "fix/internal/trace/tracetime_clean"},
	{"allochot_bad", "fix/internal/erasure/allochot_bad"},
	{"allochot_clean", "fix/internal/erasure/allochot_clean"},
	{"lockdisc_bad", "fix/internal/harness/lockdisc_bad"},
	{"lockdisc_clean", "fix/internal/harness/lockdisc_clean"},
	{"unusedignore_bad", "fix/internal/unusedignore_bad"},
}

// TestFixtures runs the full pass suite over each fixture package and
// compares the rendered diagnostics against the package's golden
// expect.txt. Regenerate with: go test ./internal/lint -run Fixtures -update
func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			absDir, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			cfg := DefaultConfig("fix")
			cfg.TrimPrefix = absDir
			var sb strings.Builder
			for _, d := range Run([]*Package{pkg}, cfg) {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			got := sb.String()

			golden := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if strings.HasSuffix(tc.dir, "_bad") && got == "" {
				t.Error("bad fixture produced no findings")
			}
			if strings.HasSuffix(tc.dir, "_clean") && got != "" {
				t.Errorf("clean fixture produced findings:\n%s", got)
			}
		})
	}
}

// TestTaintModuleFixtures exercises verify-before-use over the mini-module
// under testdata/src/taintmod: unlike the single-directory fixtures it needs
// real cross-package types (packet.Data sources, internal/crypt verifiers,
// an internal/erasure decoder sink), so the whole pretend module is loaded.
// All findings must land in taint_bad — taint_clean plus the support
// packages must stay silent — and the set is pinned by taintmod/expect.txt.
func TestTaintModuleFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "taintmod")
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modPath, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	cfg := DefaultConfig(modPath)
	cfg.TrimPrefix = absRoot
	diags := Run(pkgs, cfg)
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
		if d.Rule != RuleTaint {
			t.Errorf("non-taint finding in taint fixture module: %s", d)
		}
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "taint_bad/") {
			t.Errorf("finding outside taint_bad: %s", d)
		}
	}
	got := sb.String()
	if !strings.Contains(got, "erasure decoder") {
		t.Error("decode-before-verify bug was not caught")
	}

	golden := filepath.Join(root, "expect.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestProvModuleFixtures exercises rng-provenance over the mini-module under
// testdata/src/provmod: the pass is cross-package by design (parameters
// resolve through call sites in other packages, fields through composite
// literals, interface methods through the implementers table), so the whole
// pretend module is loaded. All findings must be rng-provenance findings
// inside prov_bad; the radio and prov_clean packages must stay silent.
func TestProvModuleFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "provmod")
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modPath, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	cfg := DefaultConfig(modPath)
	cfg.TrimPrefix = absRoot
	diags := Run(pkgs, cfg)
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
		if d.Rule != RuleRNGProv {
			t.Errorf("non-provenance finding in provenance fixture module: %s", d)
		}
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "prov_bad/") {
			t.Errorf("finding outside prov_bad: %s", d)
		}
	}
	got := sb.String()
	if got == "" {
		t.Fatal("provenance fixture module produced no findings")
	}

	golden := filepath.Join(root, "expect.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEffectModuleFixtures exercises effect-purity over the mini-module
// under testdata/src/effectmod: the pass is interprocedural by design, so
// the whole pretend module is loaded and its experiment package stands in
// for the real EffectRoots. The golden pins one finding per propagation path
// (direct call, SCC, interface dispatch, reference edge, rooted maporder,
// module-wide rand scope, stale declaration) and the silence of the declared
// boundary.
func TestEffectModuleFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "effectmod")
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modPath, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	cfg := DefaultConfig(modPath)
	cfg.TrimPrefix = absRoot
	diags := Run(pkgs, cfg)
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
		if d.Rule != RuleEffectPurity && d.Rule != RuleUnusedIgnore {
			t.Errorf("unexpected rule in effect fixture module: %s", d)
		}
	}
	got := sb.String()
	for _, want := range []string{"reachable from deterministic root", "go statement", "network I/O", "filesystem", "map iteration order"} {
		if !strings.Contains(got, want) {
			t.Errorf("no finding mentions %q", want)
		}
	}
	if strings.Contains(got, "Timestamp") {
		t.Error("declared boundary still produced a finding")
	}

	golden := filepath.Join(root, "expect.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestScanModuleFixtures exercises scan-complexity over the mini-module
// under testdata/src/scanmod: population classes flow from the config
// binding on packet.NodeID, //lrlint:population directives, the
// interprocedural parameter fixpoint and the struct-field fixpoint; roots
// come from //lrlint:eventroot, and one reaches its scan only through a
// callback bound into a struct field. The golden pins the findings; the
// neighbors-class, constant-bound and justified loops must stay silent.
func TestScanModuleFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src", "scanmod")
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modPath, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	cfg := DefaultConfig(modPath)
	cfg.TrimPrefix = absRoot
	diags := Run(pkgs, cfg)
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
		if d.Rule != RuleScanComplexity {
			t.Errorf("unexpected rule in scan fixture module: %s", d)
		}
	}
	got := sb.String()
	if !strings.Contains(got, "per-event path") {
		t.Error("no per-event finding")
	}
	if !strings.Contains(got, "nested inside") {
		t.Error("no nested-scan finding")
	}

	golden := filepath.Join(root, "expect.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

var realModule struct {
	once    sync.Once
	pkgs    []*Package
	modPath string
	err     error
}

// loadRealModule loads the repository's own module once per test binary.
func loadRealModule(t *testing.T) ([]*Package, string) {
	t.Helper()
	m := &realModule
	m.once.Do(func() { m.pkgs, m.modPath, m.err = LoadModule(filepath.Join("..", "..")) })
	if m.err != nil {
		t.Fatalf("LoadModule: %v", m.err)
	}
	if len(m.pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(m.pkgs))
	}
	return m.pkgs, m.modPath
}

// TestRealModuleClean asserts the invariant the whole PR enforces: lrlint
// runs clean on the repository itself.
func TestRealModuleClean(t *testing.T) {
	pkgs, modPath := loadRealModule(t)
	for _, d := range Run(pkgs, DefaultConfig(modPath)) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestDefaultConfigResolves checks that every package prefix and every
// qualified name in DefaultConfig names something in the module, so
// deleting or renaming code cannot silently drop lint coverage.
func TestDefaultConfigResolves(t *testing.T) {
	pkgs, modPath := loadRealModule(t)
	cfg := DefaultConfig(modPath)
	for _, scope := range []struct {
		field    string
		prefixes []string
	}{
		{"OrderedPackages", cfg.OrderedPackages},
		{"ErrorCriticalPackages", cfg.ErrorCriticalPackages},
		{"TaintPackages", cfg.TaintPackages},
		{"ConcurrencyPackages", cfg.ConcurrencyPackages},
		{"TracePackages", cfg.TracePackages},
		{"HotPathPackages", cfg.HotPathPackages},
	} {
		for _, prefix := range scope.prefixes {
			found := false
			for _, p := range pkgs {
				found = found || cfg.inScope(p.ImportPath, []string{prefix})
			}
			if !found {
				t.Errorf("%s: %q matches no package", scope.field, prefix)
			}
		}
	}

	byPath := make(map[string]*types.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p.Types
	}
	for _, roots := range []struct {
		field string
		names []string
	}{
		{"HotRoots", cfg.HotRoots},
		{"EffectRoots", cfg.EffectRoots},
		{"EventRoots", cfg.EventRoots},
		{"PopulationTypes", detmap.SortedKeys(cfg.PopulationTypes)},
		{"PopulationCalls", detmap.SortedKeys(cfg.PopulationCalls)},
		{"PopulationPropagate", cfg.PopulationPropagate},
	} {
		for _, qn := range roots.names {
			if !resolves(byPath, modPath, qn) {
				t.Errorf("%s: %q names nothing in the module", roots.field, qn)
			}
		}
	}
}

// resolves reports whether the module-relative qualified name qn
// ("pkg/path.Name" or "pkg/path.Type.Method") names a package-level object
// or a method of a package-level type.
func resolves(byPath map[string]*types.Package, modPath, qn string) bool {
	slash := strings.LastIndex(qn, "/")
	pkgPath, rest, ok := strings.Cut(qn[slash+1:], ".")
	if !ok {
		return false
	}
	pkg := byPath[modPath+"/"+qn[:slash+1]+pkgPath]
	if pkg == nil {
		return false
	}
	name, method, _ := strings.Cut(rest, ".")
	obj := pkg.Scope().Lookup(name)
	if method == "" || obj == nil {
		return obj != nil
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, method)
	_, isFunc := m.(*types.Func)
	return isFunc
}

// TestDirectiveSuppression pins the directive semantics: same line or the
// line immediately above, with rule match required.
func TestDirectiveSuppression(t *testing.T) {
	idx := directiveIndex{
		"f.go": {10: []directive{{rule: RuleEffectPurity, used: new(bool)}}},
	}
	mk := func(line int, rule string) Diagnostic {
		d := Diagnostic{Rule: rule}
		d.Pos.Filename = "f.go"
		d.Pos.Line = line
		return d
	}
	if !idx.suppresses(mk(10, RuleEffectPurity)) {
		t.Error("same-line directive did not suppress")
	}
	if !idx.suppresses(mk(11, RuleEffectPurity)) {
		t.Error("line-above directive did not suppress")
	}
	if idx.suppresses(mk(12, RuleEffectPurity)) {
		t.Error("directive suppressed two lines below")
	}
	if idx.suppresses(mk(10, RuleErrcheck)) {
		t.Error("directive suppressed a different rule")
	}
}
