package trace

import (
	"strings"
	"testing"

	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// encodeLine renders one event as its JSONL line (without newline).
func encodeLine(e Event) string { return string(AppendJSON(nil, e)) }

// TestEncodeGolden pins the exact wire bytes of representative events: the
// JSONL schema is a contract, and these strings are it.
func TestEncodeGolden(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		want string
	}{
		{
			name: "tx data",
			e: Event{SchemaV: 1, At: 1500000000, Kind: KindTx, Node: 2,
				Peer: NoNode, Pkt: packet.TypeData, Unit: 3, Index: 7},
			want: `{"v":1,"t":1500000000,"k":"tx","n":2,"pk":"data","u":3,"i":7}`,
		},
		{
			name: "drop with reason",
			e: Event{SchemaV: 1, At: 2, Kind: KindDrop, Node: 5, Peer: 1,
				Pkt: packet.TypeAdv, Unit: NoUnit, Index: NoUnit, Reason: DropFault},
			want: `{"v":1,"t":2,"k":"drop","n":5,"pe":1,"pk":"adv","r":"fault"}`,
		},
		{
			name: "state transition",
			e: Event{SchemaV: 1, At: 0, Kind: KindState, Node: 9, Peer: NoNode,
				Unit: NoUnit, Index: NoUnit, From: StateMaintain, To: StateRx, Name: "rx"},
			want: `{"v":1,"t":0,"k":"state","n":9,"from":"maintain","to":"rx","name":"rx"}`,
		},
		{
			name: "span begin",
			e: Event{SchemaV: 1, At: 7, Kind: KindSpanBegin, Node: 1, Peer: NoNode,
				Unit: 4, Index: NoUnit, Span: 12, Name: "page-fetch"},
			want: `{"v":1,"t":7,"k":"span-begin","n":1,"u":4,"sp":12,"name":"page-fetch"}`,
		},
		{
			name: "fault with value",
			e: Event{SchemaV: 1, At: 3, Kind: KindFault, Node: NoNode, Peer: NoNode,
				Unit: NoUnit, Index: NoUnit, Name: "heal", Value: 0.5},
			want: `{"v":1,"t":3,"k":"fault","name":"heal","x":0.5}`,
		},
		{
			name: "complete bare",
			e: Event{SchemaV: 1, At: 42, Kind: KindComplete, Node: 3, Peer: NoNode,
				Unit: NoUnit, Index: NoUnit},
			want: `{"v":1,"t":42,"k":"complete","n":3}`,
		},
	}
	for _, tc := range cases {
		if got := encodeLine(tc.e); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestRoundTrip decodes every golden-style event back and compares structs:
// encode and decode are exact inverses on tracer-produced events.
func TestRoundTrip(t *testing.T) {
	events := []Event{
		{SchemaV: 1, At: 1500000000, Kind: KindTx, Node: 2, Peer: NoNode, Pkt: packet.TypeData, Unit: 3, Index: 7},
		{SchemaV: 1, At: 2, Kind: KindDrop, Node: 5, Peer: 1, Pkt: packet.TypeSNACK, Unit: NoUnit, Index: NoUnit, Reason: DropPuzzle},
		{SchemaV: 1, At: 0, Kind: KindState, Node: 9, Peer: NoNode, Unit: NoUnit, Index: NoUnit, From: StateRx, To: StateTx, Name: "tx"},
		{SchemaV: 1, At: 7, Kind: KindSpanEnd, Node: 1, Peer: NoNode, Unit: 4, Index: NoUnit, Span: 12, Name: "page-fetch"},
		{SchemaV: 1, At: 3, Kind: KindFault, Node: 0, Peer: 2, Unit: NoUnit, Index: NoUnit, Name: "link-down", Value: 0},
		{SchemaV: 1, At: 9, Kind: KindSigAccept, Node: 6, Peer: 0, Pkt: packet.TypeSig, Unit: NoUnit, Index: NoUnit},
		{SchemaV: 1, At: 11, Kind: KindUnitFlashed, Node: 6, Peer: NoNode, Unit: 0, Index: NoUnit},
		{SchemaV: 1, At: 13, Kind: KindFault, Node: NoNode, Peer: NoNode, Unit: NoUnit, Index: NoUnit, Name: `quote"back\slash`, Value: -2.25},
	}
	for i, e := range events {
		line := AppendJSON(nil, e)
		got, err := DecodeLine(line)
		if err != nil {
			t.Fatalf("event %d: decode %s: %v", i, line, err)
		}
		if got != e {
			t.Fatalf("event %d round-trip mismatch:\n in  %+v\n out %+v\nline %s", i, e, got, line)
		}
	}
}

// TestDecodeRejects pins the decoder's strictness: unknown fields, unknown
// vocabulary, missing required fields and foreign schema versions all error.
func TestDecodeRejects(t *testing.T) {
	bad := []struct{ name, line string }{
		{"unknown field", `{"v":1,"t":0,"k":"tx","bogus":1}`},
		{"unknown kind", `{"v":1,"t":0,"k":"teleport"}`},
		{"unknown reason", `{"v":1,"t":0,"k":"drop","r":"gremlins"}`},
		{"unknown state", `{"v":1,"t":0,"k":"state","from":"limbo"}`},
		{"unknown packet type", `{"v":1,"t":0,"k":"tx","pk":"pigeon"}`},
		{"missing v", `{"t":0,"k":"tx"}`},
		{"missing t", `{"v":1,"k":"tx"}`},
		{"missing k", `{"v":1,"t":0}`},
		{"future schema", `{"v":999,"t":0,"k":"tx"}`},
		{"trailing data", `{"v":1,"t":0,"k":"tx"} {"v":1,"t":1,"k":"rx"}`},
		{"not json", `tx at 0`},
	}
	for _, tc := range bad {
		if _, err := DecodeLine([]byte(tc.line)); err == nil {
			t.Errorf("%s: decoder accepted %s", tc.name, tc.line)
		}
	}
}

// TestReadAll verifies stream decoding: blank lines skipped, events in
// order, first bad line reported with its number.
func TestReadAll(t *testing.T) {
	in := `{"v":1,"t":1,"k":"complete","n":0}

{"v":1,"t":2,"k":"complete","n":1}
`
	evs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Node != 0 || evs[1].Node != 1 {
		t.Fatalf("got %+v", evs)
	}
	if evs[0].At != sim.Time(1) || evs[1].At != sim.Time(2) {
		t.Fatalf("timestamps %v, %v", evs[0].At, evs[1].At)
	}

	_, err = ReadAll(strings.NewReader("{\"v\":1,\"t\":1,\"k\":\"complete\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad line not located: %v", err)
	}
}

// TestEncodeNonFinite pins that non-finite scalar payloads are omitted
// rather than producing invalid JSON.
func TestEncodeNonFinite(t *testing.T) {
	inf := Event{SchemaV: 1, At: 0, Kind: KindFault, Node: NoNode, Peer: NoNode,
		Unit: NoUnit, Index: NoUnit, Name: "heal"}
	inf.Value = 1.0
	inf.Value = inf.Value / 0 // +Inf without a constant-division compile error
	got := encodeLine(inf)
	want := `{"v":1,"t":0,"k":"fault","name":"heal"}`
	if got != want {
		t.Fatalf("non-finite value leaked into JSON: %s", got)
	}
	if _, err := DecodeLine([]byte(got)); err != nil {
		t.Fatalf("omitted-value line does not decode: %v", err)
	}
}
