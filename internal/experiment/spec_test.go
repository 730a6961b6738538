package experiment

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"lrseluge/internal/topo"
)

// TestSpecDecodeRejectsUnknownFields: a typo in a request body must fail
// loudly, never run (and cache) the default scenario.
func TestSpecDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"protcol":"seluge"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeSpec([]byte(`{"protocol":"seluge"}{"runs":2}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	s, err := DecodeSpec([]byte(`{"protocol":"seluge","runs":2}`))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Protocol != "seluge" || s.Runs != 2 {
		t.Fatalf("decoded %+v", s)
	}
}

// TestSpecRoundTrip: encode/decode preserves a normalized spec exactly.
func TestSpecRoundTrip(t *testing.T) {
	in := Spec{
		Protocol:  "lr-seluge",
		ImageSize: 4096,
		Grid:      &GridSpec{Rows: 4, Cols: 4, Density: "tight"},
		Noise:     "heavy",
		Seed:      7,
		Runs:      3,
	}
	n, err := in.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Grid == nil || *back.Grid != *n.Grid {
		t.Fatalf("grid lost: %+v", back.Grid)
	}
	g1, g2 := *n.Grid, *back.Grid
	n.Grid, back.Grid = nil, nil
	if n != back || g1 != g2 {
		t.Fatalf("round trip changed spec:\n in=%+v grid=%+v\nout=%+v grid=%+v", n, g1, back, g2)
	}
}

// TestSpecKeyInsensitiveToRepresentation is the regression test of the
// canonicalization contract: two semantically identical specs — different
// JSON field order, defaults omitted vs spelled out — hash to the same key.
func TestSpecKeyInsensitiveToRepresentation(t *testing.T) {
	// Defaults omitted, fields in one order.
	a, err := DecodeSpec([]byte(`{"seed":42,"protocol":"seluge","loss_p":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	// Same experiment: every default spelled out, different field order.
	b, err := DecodeSpec([]byte(`{
		"runs": 1,
		"image_size": 20480,
		"noise": "bernoulli",
		"packet_payload": 72, "k": 32, "n": 48,
		"policy": "greedy-rr",
		"horizon_sec": 14400,
		"puzzle_strength": 8,
		"receivers": 20,
		"schema": 1,
		"loss_p": 0.1,
		"protocol": "seluge",
		"seed": 42
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ka, err := a.Key("v1")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key("v1")
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		ca, _ := a.CanonicalJSON()
		cb, _ := b.CanonicalJSON()
		t.Fatalf("semantically identical specs hash differently:\n%s -> %s\n%s -> %s", ca, ka, cb, kb)
	}

	// Any semantic change must change the key.
	c := b
	c.LossP = 0.2
	kc, err := c.Key("v1")
	if err != nil {
		t.Fatal(err)
	}
	if kc == kb {
		t.Fatal("different loss_p produced the same key")
	}
	// And so must the code-version stamp.
	kv2, err := b.Key("v2")
	if err != nil {
		t.Fatal(err)
	}
	if kv2 == kb {
		t.Fatal("different code version produced the same key")
	}
}

// TestSpecKeyGolden pins the canonical bytes and v1 keys of two specs. A
// drifted key would silently orphan every cached runstore entry, so a change
// here must come with a SpecSchemaVersion bump.
func TestSpecKeyGolden(t *testing.T) {
	for _, c := range []struct {
		spec      Spec
		canonical string
		key       string
	}{
		{
			Spec{},
			`{"grid":null,"horizon_sec":14400,"image_size":20480,"k":32,"loss_p":0,"n":48,"noise":"bernoulli","packet_payload":72,"policy":"greedy-rr","protocol":"lr-seluge","puzzle_strength":8,"receivers":20,"runs":1,"schema":1,"seed":0}`,
			"a679f4827a2f3eb0ec5ed04e9f3c951c13cf46be5c8a9a42a0383e2747183019",
		},
		{
			Spec{Grid: &GridSpec{Rows: 3, Cols: 5}, Noise: "heavy", Seed: 9},
			`{"grid":{"cols":5,"density":"tight","rows":3},"horizon_sec":14400,"image_size":20480,"k":32,"loss_p":0,"n":48,"noise":"heavy","packet_payload":72,"policy":"greedy-rr","protocol":"lr-seluge","puzzle_strength":8,"receivers":0,"runs":1,"schema":1,"seed":9}`,
			"741fc82b972cc117adaa009601a2150f12375948c8e7a9b2f56bd58d8e0b9d7d",
		},
	} {
		cj, err := c.spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(cj) != c.canonical {
			t.Errorf("canonical JSON drifted:\n got %s\nwant %s", cj, c.canonical)
		}
		if k, err := c.spec.Key("v1"); err != nil || k != c.key {
			t.Errorf("key of %s drifted: got %s, want %s (err %v)", c.canonical, k, c.key, err)
		}
	}
}

// TestSpecCanonicalJSONShape pins the canonical form: compact, sorted keys,
// parseable back to the normalized spec.
func TestSpecCanonicalJSONShape(t *testing.T) {
	s := Spec{Protocol: "lr-seluge", Grid: &GridSpec{Rows: 3, Cols: 5}, Noise: "heavy", Seed: 9}
	cj, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(string(cj), " \n\t") {
		t.Fatalf("canonical JSON contains whitespace: %s", cj)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(cj, &m); err != nil {
		t.Fatalf("canonical JSON does not parse: %v\n%s", err, cj)
	}
	// Top-level keys appear in sorted order in the byte stream.
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	last := -1
	for _, k := range keys {
		idx := strings.Index(string(cj), `"`+k+`":`)
		if idx < 0 {
			t.Fatalf("key %q not found literally in %s", k, cj)
		}
		if idx < last {
			t.Fatalf("key %q out of sorted order in %s", k, cj)
		}
		last = idx
	}
	// The canonical bytes decode back to the normalized spec.
	back, err := DecodeSpec(cj)
	if err != nil {
		t.Fatalf("canonical JSON rejected by DecodeSpec: %v", err)
	}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if *back.Grid != *n.Grid {
		t.Fatalf("grid mismatch: %+v vs %+v", back.Grid, n.Grid)
	}
	back.Grid, n.Grid = nil, nil
	if back != n {
		t.Fatalf("canonical JSON decodes to %+v, want %+v", back, n)
	}
}

// TestSpecValidation exercises the rejection paths.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Schema: 99},
		{Protocol: "zigbee"},
		{ImageSize: -1},
		{PacketPayload: 72, K: 48, N: 32}, // n < k
		{Receivers: -3},
		{Grid: &GridSpec{Rows: 0, Cols: 4}},
		{Protocol: "LR-Seluge"}, // the Protocol.String form is not a wire name
		{Grid: &GridSpec{Rows: 4, Cols: 4, Density: "sparse"}},
		{Grid: &GridSpec{Rows: 4, Cols: 4, Density: "Medium"}},
		{Noise: "quiet"},
		{Noise: "Heavy"},
		{LossP: 1.5},
		{Policy: "lifo"},
		{Policy: "GreedyRR"},
		{PuzzleStrength: 40},
		{HorizonSec: -1},
		{Runs: -2},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
}

// TestNameLookups checks that every wire name the lookups accept maps back
// onto the value that prints as it, and that the empty name is rejected
// (Spec fills defaults before it looks a name up).
func TestNameLookups(t *testing.T) {
	for _, e := range specProtocols {
		if p, err := ParseProtocol(e.name); err != nil || p != e.proto {
			t.Errorf("ParseProtocol(%q) = %v, %v", e.name, p, err)
		}
	}
	for _, policy := range []LRPolicy{GreedyRR, UnionBits, FreshRR} {
		if p, err := ParsePolicy(policy.String()); err != nil || p != policy {
			t.Errorf("ParsePolicy(%q) = %v, %v", policy, p, err)
		}
	}
	for _, d := range []topo.GridDensity{topo.Tight, topo.Medium} {
		if got, err := ParseDensity(d.String()); err != nil || got != d {
			t.Errorf("ParseDensity(%q) = %v, %v", d, got, err)
		}
	}
	if f, err := ParseNoise("bernoulli"); err != nil || f != nil {
		t.Errorf("ParseNoise(bernoulli) = non-nil factory or %v", err)
	}
	if f, err := ParseNoise("heavy"); err != nil || f == nil || f() == f() {
		t.Errorf("ParseNoise(heavy) must build a fresh channel per call (err %v)", err)
	}
	if _, err := ParseProtocol(""); err == nil {
		t.Error("ParseProtocol accepted the empty name")
	}
	if _, err := ParsePolicy(""); err == nil {
		t.Error("ParsePolicy accepted the empty name")
	}
	if _, err := ParseDensity(""); err == nil {
		t.Error("ParseDensity accepted the empty name")
	}
	if _, err := ParseNoise(""); err == nil {
		t.Error("ParseNoise accepted the empty name")
	}
}

// TestSpecScenario checks the spec -> Scenario mapping on both topology and
// noise variants, then runs a tiny spec end to end.
func TestSpecScenario(t *testing.T) {
	s := Spec{
		Protocol:  "seluge",
		ImageSize: 2048,
		Receivers: 5,
		LossP:     0.1,
		Seed:      3,
	}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Protocol != Seluge || sc.Receivers != 5 || sc.LossP != 0.1 || sc.Seed != 3 || sc.Graph != nil {
		t.Fatalf("scenario %+v", sc)
	}

	g := Spec{
		Protocol:      "lr-seluge",
		ImageSize:     2 * 1024,
		PacketPayload: 72, K: 8, N: 12,
		Grid:  &GridSpec{Rows: 3, Cols: 3, Density: "tight"},
		Noise: "heavy",
		Seed:  1,
	}
	gsc, err := g.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if gsc.Graph == nil || gsc.Graph.NumNodes() != 9 {
		t.Fatalf("grid scenario graph %+v", gsc.Graph)
	}
	if gsc.LossFactory == nil {
		t.Fatal("heavy noise did not install a loss factory")
	}
	res, err := Run(gsc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Nodes || !res.ImagesOK {
		t.Fatalf("spec-built run incomplete: %+v", res)
	}
}

// TestCellKeys checks that catalog cells key distinctly across sweeps, cell
// positions, quick/full mode and code versions, and identically across
// repeated expansions.
func TestCellKeys(t *testing.T) {
	spec := SweepSpec{Runs: 2, Seed: 1, Quick: true}
	cells, err := SweepCells("smoke", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("smoke has %d cells, want 2", len(cells))
	}
	again, err := SweepCells("smoke", spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, c := range cells {
		k := c.Key("v1")
		if seen[k] {
			t.Fatalf("duplicate cell key %s", k)
		}
		seen[k] = true
		if got := again[i].Key("v1"); got != k {
			t.Fatalf("cell %d key not stable: %s vs %s", i, k, got)
		}
		if full := (Cell{Sweep: c.Sweep, Index: c.Index, Entry: c.Entry, Spec: SweepSpec{Runs: 2, Seed: 1}}).Key("v1"); full == k {
			t.Fatal("quick and full cells share a key")
		}
		if v2 := c.Key("v2"); v2 == k {
			t.Fatal("code version does not split cell keys")
		}
	}
	if _, err := SweepCells("no-such-sweep", spec); err == nil {
		t.Fatal("unknown sweep accepted")
	}
}
