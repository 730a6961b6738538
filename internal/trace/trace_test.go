package trace

import (
	"testing"

	"lrseluge/internal/packet"
	"lrseluge/internal/sim"
)

// TestNilTracerIsSafe exercises every recording method on a nil tracer: the
// disabled tracer must be a total no-op, since instrumented protocol code
// calls it unguarded.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if tr.Emitted() != 0 {
		t.Fatal("nil tracer reports emitted events")
	}
	p := &packet.Adv{Src: 1}
	tr.Tx(1, p)
	tr.Rx(2, 1, p)
	tr.Drop(2, 1, p, DropChannel)
	tr.State(1, "rx", StateMaintain, StateRx)
	tr.UnitEvent(KindUnitFirst, 1, 0)
	tr.SigResult(1, 0, true)
	tr.Complete(1)
	tr.Fault("node-crash", 1, NoNode)
	sp := tr.Begin(1, "page-fetch", 2)
	if sp.Active() {
		t.Fatal("nil tracer returned an active span")
	}
	sp.End() // must not panic
}

// TestTracerStampsEngineTime verifies every event carries the engine's
// virtual clock at emit time and the schema version.
func TestTracerStampsEngineTime(t *testing.T) {
	eng := sim.New()
	ring := NewRing(16)
	tr, err := New(eng, ring)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled() {
		t.Fatal("constructed tracer not enabled")
	}
	eng.Schedule(5*sim.Second, func() { tr.Complete(3) })
	eng.Schedule(7*sim.Second, func() { tr.Fault("heal", NoNode, NoNode) })
	eng.RunUntilIdle()

	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].At != 5*sim.Second || evs[1].At != 7*sim.Second {
		t.Fatalf("timestamps %v, %v; want 5s, 7s", evs[0].At, evs[1].At)
	}
	for i, e := range evs {
		if e.SchemaV != Schema {
			t.Fatalf("event %d schema %d, want %d", i, e.SchemaV, Schema)
		}
	}
	if evs[1].Node != NoNode {
		t.Fatalf("node-less fault got node %d", evs[1].Node)
	}
	if tr.Emitted() != 2 {
		t.Fatalf("Emitted() = %d, want 2", tr.Emitted())
	}
}

// TestPacketEventFields checks Tx/Rx/Drop populate the packet identity:
// data packets carry (unit, index), others do not.
func TestPacketEventFields(t *testing.T) {
	eng := sim.New()
	ring := NewRing(16)
	tr, _ := New(eng, ring)

	d := &packet.Data{Src: 4, Unit: 3, Index: 7}
	tr.Tx(4, d)
	tr.Rx(5, 4, d)
	a := &packet.Adv{Src: 4}
	tr.Drop(5, 4, a, DropAuth)

	evs := ring.Events()
	tx := evs[0]
	if tx.Kind != KindTx || tx.Node != 4 || tx.Peer != NoNode || tx.Pkt != packet.TypeData || tx.Unit != 3 || tx.Index != 7 {
		t.Fatalf("tx event %+v", tx)
	}
	rx := evs[1]
	if rx.Kind != KindRx || rx.Node != 5 || rx.Peer != 4 || rx.Unit != 3 || rx.Index != 7 {
		t.Fatalf("rx event %+v", rx)
	}
	dr := evs[2]
	if dr.Kind != KindDrop || dr.Reason != DropAuth || dr.Pkt != packet.TypeAdv || dr.Unit != NoUnit || dr.Index != NoUnit {
		t.Fatalf("drop event %+v", dr)
	}
}

// TestSpanPairing verifies Begin/End produce matched span ids carrying the
// node, unit and name on both sides, and that ids are unique per tracer.
func TestSpanPairing(t *testing.T) {
	eng := sim.New()
	ring := NewRing(16)
	tr, _ := New(eng, ring)

	s1 := tr.Begin(1, "page-fetch", 2)
	s2 := tr.Begin(1, "sig-verify", NoUnit)
	eng.Schedule(sim.Second, func() { s2.End(); s1.End() })
	eng.RunUntilIdle()

	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	b1, b2, e2, e1 := evs[0], evs[1], evs[2], evs[3]
	if b1.Span == 0 || b2.Span == 0 || b1.Span == b2.Span {
		t.Fatalf("span ids not unique: %d, %d", b1.Span, b2.Span)
	}
	if e1.Span != b1.Span || e2.Span != b2.Span {
		t.Fatalf("span pairing broken: begin %d/%d end %d/%d", b1.Span, b2.Span, e1.Span, e2.Span)
	}
	if b1.Name != "page-fetch" || e1.Name != "page-fetch" || b1.Unit != 2 || e1.Unit != 2 {
		t.Fatalf("span fields not carried to both sides: %+v / %+v", b1, e1)
	}
	if e1.At != sim.Second || e2.At != sim.Second {
		t.Fatalf("span ends not stamped at end time: %v, %v", e1.At, e2.At)
	}
}

// TestNewRejectsNil pins the constructor contract.
func TestNewRejectsNil(t *testing.T) {
	if _, err := New(nil, NewRing(1)); err == nil {
		t.Fatal("New accepted a nil engine")
	}
	if _, err := New(sim.New(), nil); err == nil {
		t.Fatal("New accepted a nil sink")
	}
}

// TestEnumStrings pins the wire vocabulary: these strings are the schema.
func TestEnumStrings(t *testing.T) {
	wantKinds := []string{"tx", "rx", "drop", "state", "unit-first",
		"unit-decodable", "unit-verified", "unit-flashed", "sig-accept",
		"sig-reject", "complete", "fault", "span-begin", "span-end"}
	kinds := Kinds()
	if len(kinds) != len(wantKinds) {
		t.Fatalf("got %d kinds, want %d", len(kinds), len(wantKinds))
	}
	for i, k := range kinds {
		if k.String() != wantKinds[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), wantKinds[i])
		}
	}
	wantReasons := []string{"channel", "fault", "auth", "duplicate", "puzzle", "stale"}
	reasons := DropReasons()
	if len(reasons) != len(wantReasons) {
		t.Fatalf("got %d reasons, want %d", len(reasons), len(wantReasons))
	}
	for i, r := range reasons {
		if r.String() != wantReasons[i] {
			t.Errorf("reason %d = %q, want %q", i, r.String(), wantReasons[i])
		}
	}
	for s, want := range map[State]string{StateMaintain: "maintain", StateRx: "rx", StateTx: "tx"} {
		if s.String() != want {
			t.Errorf("state %d = %q, want %q", s, s.String(), want)
		}
	}
	// Out-of-range values render without panicking.
	if Kind(0).String() == "" || DropReason(200).String() == "" || State(9).String() == "" {
		t.Error("out-of-range enum rendered empty")
	}
}
