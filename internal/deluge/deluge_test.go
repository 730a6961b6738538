package deluge

import (
	"testing"

	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/packet"
)

func testParams() image.Params {
	return image.Params{PacketPayload: 16, K: 4, N: 4}
}

func buildObject(t *testing.T, size int) (*Object, []byte) {
	t.Helper()
	data := image.Random(size, 1)
	obj, err := NewObject(1, data, testParams())
	if err != nil {
		t.Fatal(err)
	}
	return obj, data
}

func TestObjectPageCount(t *testing.T) {
	obj, _ := buildObject(t, 200) // page = 4*16 = 64 bytes -> 4 pages
	if obj.NumPages() != 4 || obj.ImageSize() != 200 || obj.Version() != 1 {
		t.Fatalf("object wrong: pages=%d size=%d", obj.NumPages(), obj.ImageSize())
	}
}

func TestObjectRejectsHugeImage(t *testing.T) {
	if _, err := NewObject(1, image.Random(64*251, 1), testParams()); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestPreloadIsComplete(t *testing.T) {
	obj, data := buildObject(t, 200)
	h := Preload(obj)
	if h.CompleteUnits() != 4 || h.TotalUnits() != 4 {
		t.Fatalf("preload incomplete: %d/%d", h.CompleteUnits(), h.TotalUnits())
	}
	if !h.MatchesImage(data) {
		t.Fatal("preloaded image mismatch")
	}
}

func transferAll(t *testing.T, src, dst *Handler, pages int) {
	t.Helper()
	for u := 0; u < pages; u++ {
		for idx := 0; idx < testParams().K; idx++ {
			pkts, err := src.Packet(u, idx, 0)
			if err != nil {
				t.Fatal(err)
			}
			res := dst.Ingest(pkts)
			wantLast := idx == testParams().K-1
			if wantLast && res != dissem.UnitComplete {
				t.Fatalf("unit %d idx %d: result %v, want complete", u, idx, res)
			}
			if !wantLast && res != dissem.Stored {
				t.Fatalf("unit %d idx %d: result %v, want stored", u, idx, res)
			}
		}
	}
}

func TestEndToEndTransfer(t *testing.T) {
	obj, data := buildObject(t, 200)
	src := Preload(obj)
	dst, err := NewHandler(1, testParams())
	if err != nil {
		t.Fatal(err)
	}
	dst.LearnTotal(obj.NumPages())
	transferAll(t, src, dst, obj.NumPages())
	if !dst.MatchesImage(data) {
		t.Fatal("transferred image mismatch")
	}
}

func TestIngestRules(t *testing.T) {
	obj, _ := buildObject(t, 200)
	src := Preload(obj)
	dst, _ := NewHandler(1, testParams())
	dst.LearnTotal(4)

	pkts, _ := src.Packet(0, 0, 0)
	if res := dst.Ingest(pkts); res != dissem.Stored {
		t.Fatalf("first ingest: %v", res)
	}
	if res := dst.Ingest(pkts); res != dissem.Duplicate {
		t.Fatalf("duplicate ingest: %v", res)
	}
	future, _ := src.Packet(2, 0, 0)
	if res := dst.Ingest(future); res != dissem.Stale {
		t.Fatalf("future-page ingest: %v", res)
	}
	short := &packet.Data{Version: 1, Unit: 0, Index: 1, Payload: []byte("short")}
	if res := dst.Ingest(short); res != dissem.Rejected {
		t.Fatalf("short payload ingest: %v", res)
	}
	badIdx, _ := src.Packet(0, 1, 0)
	badIdx.Index = 200
	if res := dst.Ingest(badIdx); res != dissem.Rejected {
		t.Fatalf("bad index ingest: %v", res)
	}
}

func TestHasPacketTracking(t *testing.T) {
	obj, _ := buildObject(t, 200)
	src := Preload(obj)
	dst, _ := NewHandler(1, testParams())
	dst.LearnTotal(4)
	if dst.HasPacket(0, 0) {
		t.Fatal("fresh handler claims a packet")
	}
	pkts, _ := src.Packet(0, 2, 0)
	dst.Ingest(pkts)
	if !dst.HasPacket(0, 2) || dst.HasPacket(0, 1) {
		t.Fatal("HasPacket wrong for current page")
	}
	if dst.HasPacket(1, 0) {
		t.Fatal("future page reported held")
	}
}

func TestLearnTotalOnlyOnce(t *testing.T) {
	h, _ := NewHandler(1, testParams())
	h.LearnTotal(4)
	h.LearnTotal(9)
	if h.TotalUnits() != 4 {
		t.Fatalf("total %d, want first-learned 4", h.TotalUnits())
	}
}

func TestNoSignatureMachinery(t *testing.T) {
	h, _ := NewHandler(1, testParams())
	if h.WantsSig() || h.PreVerifySig(nil) || h.SigPacket(0) != nil {
		t.Fatal("deluge should have no signature machinery")
	}
	if h.IngestSig(&packet.Sig{}) != dissem.Stale {
		t.Fatal("IngestSig should be stale")
	}
	if h.NeededInUnit(0) != testParams().K || h.PacketsInUnit(0) != testParams().K {
		t.Fatal("unit sizing wrong")
	}
}

func TestPacketsErrors(t *testing.T) {
	obj, _ := buildObject(t, 200)
	src := Preload(obj)
	if _, err := src.Packet(9, 0, 0); err == nil {
		t.Fatal("unheld unit served")
	}
	if _, err := src.Packet(0, 99, 0); err == nil {
		t.Fatal("out-of-range index served")
	}
	empty, _ := NewHandler(1, testParams())
	if _, err := empty.Packet(0, 0, 0); err == nil {
		t.Fatal("empty handler served a unit")
	}
}

func TestReassembleIncompleteFails(t *testing.T) {
	h, _ := NewHandler(1, testParams())
	if h.MatchesImage(make([]byte, 100)) {
		t.Fatal("incomplete image reassembled")
	}
}
