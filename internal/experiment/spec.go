package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"lrseluge/internal/image"
	"lrseluge/internal/radio"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
)

// SpecSchemaVersion is the wire-schema version of Spec. Bump it whenever the
// canonical encoding changes meaning: the version participates in the run
// key, so old cached results can never be served against a new schema.
const SpecSchemaVersion = 1

// keyDomain is the hash domain separator of run keys. It pins the key
// derivation itself: changing how keys are built invalidates every old key.
const keyDomain = "lrseluge-run-key-v1"

// GridSpec describes a multi-hop lattice topology in serializable form.
type GridSpec struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Density is "tight" or "medium" (topo.GridDensity names).
	Density string `json:"density"`
}

// Spec is the serializable description of one averaged experiment cell: a
// Scenario restricted to fields expressible as plain data, plus the run
// count. It is the request body of lrserved's POST /v1/runs and the input of
// content-addressed run keys.
//
// Spec deliberately covers only the declarative subset of Scenario —
// topologies by shape, channels by named model, no caller-supplied images,
// loss models, fault factories or trace sinks. Everything a Spec can express
// is a pure function of its fields plus the code version, which is exactly
// the property that makes runs cacheable by key.
type Spec struct {
	// Schema must be SpecSchemaVersion (0 on input means "current").
	Schema int `json:"schema"`

	// Protocol is one of "deluge", "seluge", "lr-seluge", "rateless"
	// (default "lr-seluge").
	Protocol string `json:"protocol"`

	// ImageSize is the pseudo-random image size in bytes (default 20 KiB).
	ImageSize int `json:"image_size"`

	// PacketPayload/K/N are the packet and coding geometry (default 72/32/48).
	PacketPayload int `json:"packet_payload"`
	K             int `json:"k"`
	N             int `json:"n"`

	// Receivers sizes the one-hop neighborhood when Grid is nil (default 20).
	Receivers int `json:"receivers"`

	// Grid, when non-nil, selects a rows x cols lattice instead of the
	// one-hop complete topology; Receivers is then ignored.
	Grid *GridSpec `json:"grid"`

	// Noise selects the channel model: "bernoulli" (i.i.d. losses at LossP,
	// the default) or "heavy" (bursty Gilbert-Elliott, fresh state per run).
	Noise string `json:"noise"`

	// LossP is the Bernoulli loss probability (ignored under "heavy").
	LossP float64 `json:"loss_p"`

	// Policy is the LR-Seluge scheduling policy: "greedy-rr" (default),
	// "union", or "fresh-rr".
	Policy string `json:"policy"`

	// PuzzleStrength is the weak-authenticator difficulty in bits (default 8).
	PuzzleStrength int `json:"puzzle_strength"`

	// HorizonSec caps virtual time in simulated seconds (default 4 hours).
	HorizonSec float64 `json:"horizon_sec"`

	// Seed is the base RNG seed; run i uses Seed + i*seedStride.
	Seed int64 `json:"seed"`

	// Runs is the number of seeds averaged (default 1).
	Runs int `json:"runs"`
}

// specProtocols maps wire names onto Protocol values, in canonical order.
var specProtocols = []struct {
	name  string
	proto Protocol
}{
	{"deluge", Deluge},
	{"seluge", Seluge},
	{"lr-seluge", LRSeluge},
	{"rateless", RatelessDeluge},
}

// specPolicies maps wire names onto LRPolicy values. The names are the
// LRPolicy.String() forms, so specs and sweep params agree.
var specPolicies = []struct {
	name   string
	policy LRPolicy
}{
	{"greedy-rr", GreedyRR},
	{"union", UnionBits},
	{"fresh-rr", FreshRR},
}

// DecodeSpec parses a Spec from JSON, rejecting unknown fields so a typo in
// a request body fails loudly instead of silently running the default
// scenario (and caching it under a key the caller did not intend).
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("experiment: decode spec: %w", err)
	}
	// A second document in the body is almost certainly a client bug.
	if dec.More() {
		return Spec{}, fmt.Errorf("experiment: decode spec: trailing data after JSON document")
	}
	return s, nil
}

// Normalize applies the same defaults Scenario.WithDefaults would and
// validates every field, returning the fully-explicit spec. Two specs that
// normalize equal describe the same experiment and hash to the same key.
func (s Spec) Normalize() (Spec, error) {
	out := s
	if out.Schema == 0 {
		out.Schema = SpecSchemaVersion
	}
	if out.Schema != SpecSchemaVersion {
		return Spec{}, fmt.Errorf("experiment: spec schema %d unsupported (want %d)", out.Schema, SpecSchemaVersion)
	}
	if out.Protocol == "" {
		out.Protocol = "lr-seluge"
	}
	if _, err := out.protocol(); err != nil {
		return Spec{}, err
	}
	if out.ImageSize == 0 {
		out.ImageSize = 20 * 1024
	}
	if out.ImageSize < 1 {
		return Spec{}, fmt.Errorf("experiment: spec image_size %d must be >= 1", out.ImageSize)
	}
	if out.PacketPayload == 0 && out.K == 0 && out.N == 0 {
		p := image.DefaultParams()
		out.PacketPayload, out.K, out.N = p.PacketPayload, p.K, p.N
	}
	if err := (image.Params{PacketPayload: out.PacketPayload, K: out.K, N: out.N}).Validate(); err != nil {
		return Spec{}, fmt.Errorf("experiment: spec params: %w", err)
	}
	if out.Grid != nil {
		if out.Grid.Rows < 1 || out.Grid.Cols < 1 {
			return Spec{}, fmt.Errorf("experiment: spec grid %dx%d must be at least 1x1", out.Grid.Rows, out.Grid.Cols)
		}
		if out.Grid.Density == "" {
			out.Grid.Density = topo.Tight.String()
		}
		if _, err := out.gridDensity(); err != nil {
			return Spec{}, err
		}
		if out.Grid.Rows*out.Grid.Cols < 2 {
			return Spec{}, fmt.Errorf("experiment: spec grid needs at least 2 nodes")
		}
		out.Receivers = 0 // ignored under a grid; zero it so it cannot split keys
	} else {
		if out.Receivers == 0 {
			out.Receivers = 20
		}
		if out.Receivers < 1 {
			return Spec{}, fmt.Errorf("experiment: spec receivers %d must be >= 1", out.Receivers)
		}
	}
	if out.Noise == "" {
		out.Noise = "bernoulli"
	}
	switch out.Noise {
	case "bernoulli":
		if out.LossP < 0 || out.LossP >= 1 {
			return Spec{}, fmt.Errorf("experiment: spec loss_p %v must be in [0, 1)", out.LossP)
		}
	case "heavy":
		out.LossP = 0 // ignored under heavy noise; zero it so it cannot split keys
	default:
		return Spec{}, fmt.Errorf("experiment: spec noise %q unknown (want bernoulli or heavy)", out.Noise)
	}
	if out.Policy == "" {
		out.Policy = GreedyRR.String()
	}
	if _, err := out.lrPolicy(); err != nil {
		return Spec{}, err
	}
	if out.PuzzleStrength == 0 {
		out.PuzzleStrength = 8
	}
	if out.PuzzleStrength < 1 || out.PuzzleStrength > 32 {
		return Spec{}, fmt.Errorf("experiment: spec puzzle_strength %d must be in [1, 32]", out.PuzzleStrength)
	}
	if out.HorizonSec == 0 {
		out.HorizonSec = (4 * 3600 * sim.Second).Seconds()
	}
	if out.HorizonSec <= 0 {
		return Spec{}, fmt.Errorf("experiment: spec horizon_sec %v must be > 0", out.HorizonSec)
	}
	if out.Runs == 0 {
		out.Runs = 1
	}
	if out.Runs < 1 {
		return Spec{}, fmt.Errorf("experiment: spec runs %d must be >= 1", out.Runs)
	}
	return out, nil
}

func (s Spec) protocol() (Protocol, error) {
	for _, e := range specProtocols {
		if e.name == s.Protocol {
			return e.proto, nil
		}
	}
	return 0, fmt.Errorf("experiment: spec protocol %q unknown (want deluge, seluge, lr-seluge or rateless)", s.Protocol)
}

func (s Spec) lrPolicy() (LRPolicy, error) {
	for _, e := range specPolicies {
		if e.name == s.Policy {
			return e.policy, nil
		}
	}
	return 0, fmt.Errorf("experiment: spec policy %q unknown (want greedy-rr, union or fresh-rr)", s.Policy)
}

func (s Spec) gridDensity() (topo.GridDensity, error) {
	for _, d := range []topo.GridDensity{topo.Tight, topo.Medium} {
		if s.Grid != nil && s.Grid.Density == d.String() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("experiment: spec grid density %q unknown (want tight or medium)", s.Grid.Density)
}

// Scenario converts a spec into a runnable Scenario. The spec is normalized
// first, so the scenario built here is exactly the one the spec's key
// hashes: same defaults, same validation.
func (s Spec) Scenario() (Scenario, error) {
	n, err := s.Normalize()
	if err != nil {
		return Scenario{}, err
	}
	proto, err := n.protocol()
	if err != nil {
		return Scenario{}, err
	}
	policy, err := n.lrPolicy()
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Protocol:       proto,
		ImageSize:      n.ImageSize,
		Params:         image.Params{PacketPayload: n.PacketPayload, K: n.K, N: n.N},
		Receivers:      n.Receivers,
		LRPolicy:       policy,
		PuzzleStrength: uint(n.PuzzleStrength),
		Seed:           n.Seed,
		Horizon:        sim.Time(n.HorizonSec * float64(sim.Second)),
	}
	if n.Grid != nil {
		density, err := n.gridDensity()
		if err != nil {
			return Scenario{}, err
		}
		graph, err := topo.Grid(n.Grid.Rows, n.Grid.Cols, density)
		if err != nil {
			return Scenario{}, err
		}
		if !graph.Connected() {
			return Scenario{}, fmt.Errorf("experiment: spec grid %dx%d/%s is not connected", n.Grid.Rows, n.Grid.Cols, n.Grid.Density)
		}
		sc.Graph = graph
	}
	switch n.Noise {
	case "heavy":
		sc.LossFactory = func() radio.LossModel { return radio.HeavyNoise() }
	default:
		sc.LossP = n.LossP
	}
	return sc, nil
}

// CanonicalJSON renders the normalized spec in canonical form: every field
// explicit, object keys sorted bytewise, no insignificant whitespace,
// integers as integers and floats in Go's shortest-round-trip form. Two
// semantically identical specs — regardless of input field order or omitted
// defaults — produce identical bytes, which is what makes the SHA-256 key
// content-addressed rather than representation-addressed.
func (s Spec) CanonicalJSON() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteByte('{')
	// Keys in sorted order, maintained by hand and pinned by a test that
	// re-parses and re-derives the ordering.
	if n.Grid != nil {
		fmt.Fprintf(&b, `"grid":{"cols":%d,"density":%q,"rows":%d},`, n.Grid.Cols, n.Grid.Density, n.Grid.Rows)
	} else {
		b.WriteString(`"grid":null,`)
	}
	fmt.Fprintf(&b, `"horizon_sec":%s,`, canonicalFloat(n.HorizonSec))
	fmt.Fprintf(&b, `"image_size":%d,`, n.ImageSize)
	fmt.Fprintf(&b, `"k":%d,`, n.K)
	fmt.Fprintf(&b, `"loss_p":%s,`, canonicalFloat(n.LossP))
	fmt.Fprintf(&b, `"n":%d,`, n.N)
	fmt.Fprintf(&b, `"noise":%q,`, n.Noise)
	fmt.Fprintf(&b, `"packet_payload":%d,`, n.PacketPayload)
	fmt.Fprintf(&b, `"policy":%q,`, n.Policy)
	fmt.Fprintf(&b, `"protocol":%q,`, n.Protocol)
	fmt.Fprintf(&b, `"puzzle_strength":%d,`, n.PuzzleStrength)
	fmt.Fprintf(&b, `"receivers":%d,`, n.Receivers)
	fmt.Fprintf(&b, `"runs":%d,`, n.Runs)
	fmt.Fprintf(&b, `"schema":%d,`, n.Schema)
	fmt.Fprintf(&b, `"seed":%d`, n.Seed)
	b.WriteByte('}')
	return b.Bytes(), nil
}

// canonicalFloat is the canonical float rendering: Go's shortest form that
// round-trips, identical to what encoding/json emits for float64.
func canonicalFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Key derives the content-addressed run key of a spec under a code version:
// hex SHA-256 over the domain separator, the code-version stamp and the
// canonical JSON (which embeds schema, seed and run count). Determinism of
// the simulator makes this key a complete identity for the averaged result —
// identical (spec, code-version) must produce identical AvgResult bytes, so
// a stored value can be served forever.
func (s Spec) Key(codeVersion string) (string, error) {
	cj, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return deriveKey(keyDomain, codeVersion, string(cj)), nil
}

// deriveKey hashes length-prefixed parts so no concatenation of fields can
// collide with another split of the same bytes.
func deriveKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		var lenBuf [8]byte
		n := len(p)
		for i := 0; i < 8; i++ {
			lenBuf[7-i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cell is one store-addressable unit of a catalog sweep: a grid entry plus
// enough context (sweep name, catalog dims, entry position) to make its key
// collision-free across sweeps, quick/full modes and catalog revisions
// under one code version.
type Cell struct {
	// Sweep and Index locate the cell in the catalog expansion.
	Sweep string
	Index int
	// Entry is the underlying grid entry (scenario + run count).
	Entry GridEntry
	// Spec is the catalog spec the expansion was built from.
	Spec SweepSpec
}

// SweepCells expands a named catalog sweep into its store-addressable cells.
func SweepCells(name string, spec SweepSpec) ([]Cell, error) {
	entries, err := NamedSweep(name, spec)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(entries))
	for i, e := range entries {
		cells[i] = Cell{Sweep: name, Index: i, Entry: e, Spec: spec}
	}
	return cells, nil
}

// Key derives the cell's content-addressed key. Catalog cells are built by
// code (loss factories, fault factories, topologies), so unlike Spec keys
// they are addressed by their position in the deterministic catalog
// expansion: sweep name, quick flag, runs, base seed, entry index/name,
// protocol and the entry's ordered params. The code-version stamp covers
// catalog edits, exactly as it covers simulator edits for Spec keys.
func (c Cell) Key(codeVersion string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"entry":%q,`, c.Entry.Name)
	fmt.Fprintf(&b, `"index":%d,`, c.Index)
	b.WriteString(`"params":[`)
	for i, p := range c.Entry.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `[%q,%q]`, p.Key, p.Value)
	}
	b.WriteString(`],`)
	fmt.Fprintf(&b, `"proto":%q,`, c.Entry.Scenario.Protocol.String())
	fmt.Fprintf(&b, `"quick":%v,`, c.Spec.Quick)
	fmt.Fprintf(&b, `"runs":%d,`, c.Entry.Runs)
	fmt.Fprintf(&b, `"schema":%d,`, SpecSchemaVersion)
	fmt.Fprintf(&b, `"seed":%d,`, c.Spec.Seed)
	fmt.Fprintf(&b, `"sweep":%q}`, c.Sweep)
	return deriveKey(keyDomain+"/sweep-cell", codeVersion, b.String())
}
