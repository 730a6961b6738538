package rateless

import (
	"bytes"
	"testing"

	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

func testParams() image.Params {
	return image.Params{PacketPayload: 24, K: 8, N: 8}
}

func TestObjectAndPreload(t *testing.T) {
	data := image.Random(500, 1)
	obj, err := NewObject(1, data, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// page = 8*24 = 192 bytes -> 3 pages
	if obj.NumPages() != 3 {
		t.Fatalf("pages %d", obj.NumPages())
	}
	h := Preload(obj)
	if h.CompleteUnits() != 3 || h.TotalUnits() != 3 {
		t.Fatal("preload incomplete")
	}
	if !h.MatchesImage(data) {
		t.Fatal("preload image mismatch")
	}
}

func TestSymbolTransferDecodes(t *testing.T) {
	data := image.Random(500, 2)
	obj, err := NewObject(1, data, testParams())
	if err != nil {
		t.Fatal(err)
	}
	src := Preload(obj)
	dst, err := NewHandler(1, testParams())
	if err != nil {
		t.Fatal(err)
	}
	dst.LearnTotal(obj.NumPages())
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		before := dst.CompleteUnits()
		for idx := 0; idx < dst.PacketsInUnit(u); idx++ {
			pkts, err := src.Packet(u, idx, 0)
			if err != nil {
				t.Fatal(err)
			}
			res := dst.Ingest(pkts)
			if res == dissem.Rejected {
				t.Fatalf("unit %d idx %d rejected", u, idx)
			}
			if dst.CompleteUnits() > before {
				break
			}
		}
		if dst.CompleteUnits() == before {
			t.Fatalf("unit %d did not decode from the full pool", u)
		}
	}
	if !dst.MatchesImage(data) {
		t.Fatal("image mismatch")
	}
}

func TestRelayedSymbolsIdentical(t *testing.T) {
	// The shared deterministic encoder: a node that decoded a page must
	// generate byte-identical symbols to the base station's.
	data := image.Random(300, 3)
	obj, _ := NewObject(1, data, testParams())
	src := Preload(obj)
	dst, _ := NewHandler(1, testParams())
	dst.LearnTotal(obj.NumPages())
	for dst.CompleteUnits() < 1 {
		for idx := 0; idx < dst.PacketsInUnit(0) && dst.CompleteUnits() < 1; idx++ {
			pkts, _ := src.Packet(0, idx, 0)
			dst.Ingest(pkts)
		}
	}
	for idx := 0; idx < dst.PacketsInUnit(0); idx++ {
		a, err := src.Packet(0, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dst.Packet(0, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("symbol %d differs between nodes", idx)
		}
	}
}

func TestIngestRules(t *testing.T) {
	data := image.Random(300, 4)
	obj, _ := NewObject(1, data, testParams())
	src := Preload(obj)
	dst, _ := NewHandler(1, testParams())
	dst.LearnTotal(obj.NumPages())

	pkts, _ := src.Packet(0, 0, 0)
	if res := dst.Ingest(pkts); res != dissem.Stored {
		t.Fatalf("first symbol: %v", res)
	}
	if res := dst.Ingest(pkts); res != dissem.Duplicate {
		t.Fatalf("duplicate symbol: %v", res)
	}
	future, _ := src.Packet(1, 0, 0)
	if res := dst.Ingest(future); res != dissem.Stale {
		t.Fatalf("future page: %v", res)
	}
	bad := &packet.Data{Version: 1, Unit: 0, Index: 200, Payload: make([]byte, 24)}
	if res := dst.Ingest(bad); res != dissem.Rejected {
		t.Fatalf("out-of-pool index: %v", res)
	}
	short := &packet.Data{Version: 1, Unit: 0, Index: 1, Payload: []byte("x")}
	if res := dst.Ingest(short); res != dissem.Rejected {
		t.Fatalf("short symbol: %v", res)
	}
}

func TestNoSecurity(t *testing.T) {
	h, _ := NewHandler(1, testParams())
	if h.WantsSig() || h.PreVerifySig(nil) || h.SigPacket(0) != nil {
		t.Fatal("rateless baseline must not have signature machinery")
	}
	ok := &packet.Data{Index: 0, Payload: make([]byte, 24)}
	if !h.Authentic(ok) {
		t.Fatal("structurally valid packet rejected")
	}
}

func TestPoolOverflowRejected(t *testing.T) {
	big := image.Params{PacketPayload: 72, K: 200, N: 200}
	if _, err := NewHandler(1, big); err == nil {
		t.Fatal("oversized pool accepted")
	}
}
