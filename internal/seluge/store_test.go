package seluge

import (
	"math/rand"
	"testing"

	"lrseluge/internal/core"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
)

// relay has dst fetch the signature and then every packet of every unit
// from src, in a random order per unit.
func relay(t *testing.T, src, dst *Handler, rng *rand.Rand) {
	t.Helper()
	if sig := src.SigPacket(0); !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
		t.Fatal("genuine signature rejected")
	}
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		for _, idx := range rng.Perm(dst.PacketsInUnit(u)) {
			pkts, err := src.Packets(u, []int{idx}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res := dst.Ingest(pkts[0]); res == dissem.Rejected {
				t.Fatalf("unit %d idx %d rejected", u, idx)
			}
		}
		if dst.CompleteUnits() != u+1 {
			t.Fatalf("unit %d did not complete", u)
		}
	}
}

func TestStoreSharesVerifiedUnits(t *testing.T) {
	f := newFixture(t, 200)
	holders := []*Handler{Preload(f.obj, f.sigCtx())}
	rng := rand.New(rand.NewSource(7))
	for len(holders) < 50 {
		dst := f.receiver(t)
		relay(t, holders[rng.Intn(len(holders))], dst, rng)
		holders = append(holders, dst)
	}
	root := f.obj.Root()
	for i, h := range holders[1:] {
		if !h.MatchesImage(f.data) {
			t.Fatalf("node %d: image mismatch", i+1)
		}
		for u := 1; u < h.TotalUnits(); u++ {
			entry := f.store.Lookup(root, u)
			if entry == nil || h.units[u-1] != entry {
				t.Fatalf("node %d unit %d: held entry is not the store's", i+1, u)
			}
			if !entry.Equal(f.obj.units[u-1].Blocks()) {
				t.Fatalf("unit %d: store entry differs from the base station's object", u)
			}
		}
	}
}

// TestPlantedCorruptEntryRejected plants a wrong entry for M0 and for page
// 1: a node fed only genuine packets must reject the unit on the byte
// compare, and never complete holding the wrong bytes.
func TestPlantedCorruptEntryRejected(t *testing.T) {
	f := newFixture(t, 200)
	src := Preload(f.obj, f.sigCtx())
	for _, unit := range []int{1, 2} {
		store := core.NewStore()
		genuine := f.obj.units[unit-1]
		bad := make([][]byte, len(genuine.Blocks()))
		for i, b := range genuine.Blocks() {
			bad[i] = append([]byte(nil), b...)
		}
		bad[len(bad)-1][0] ^= 1
		store.Intern(f.obj.Root(), unit, bad, func() *core.Unit { return core.NewUnit(bad, genuine.Next(), genuine.Tree()) })

		dst, err := NewHandler(1, testParams(), store, f.sigCtx())
		if err != nil {
			t.Fatal(err)
		}
		if sig := src.SigPacket(0); !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
			t.Fatal("genuine signature rejected")
		}
		for u := 1; u <= unit; u++ {
			var last dissem.IngestResult
			for idx := 0; idx < dst.PacketsInUnit(u); idx++ {
				pkts, _ := src.Packets(u, []int{idx}, 0)
				last = dst.Ingest(pkts[0])
			}
			if u < unit && last != dissem.UnitComplete {
				t.Fatalf("clean unit %d: %v", u, last)
			}
			if u == unit && last != dissem.Rejected {
				t.Fatalf("unit %d against a corrupt entry: %v", u, last)
			}
		}
		if dst.CompleteUnits() != unit || dst.MatchesImage(f.data) {
			t.Fatalf("unit %d: node advanced past a corrupt entry", unit)
		}
	}
}

func TestCrashKeepsHeldEntriesWipesBuffer(t *testing.T) {
	f := newFixture(t, 200)
	src := Preload(f.obj, f.sigCtx())
	dst := f.receiver(t)
	if sig := src.SigPacket(0); !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
		t.Fatal("genuine signature rejected")
	}
	// Hold M0 and page 1, then two packets of page 2.
	for u := 1; u <= 2; u++ {
		for idx := 0; idx < dst.PacketsInUnit(u); idx++ {
			pkts, _ := src.Packets(u, []int{idx}, 0)
			dst.Ingest(pkts[0])
		}
	}
	for idx := 0; idx < 2; idx++ {
		pkts, _ := src.Packets(3, []int{idx}, 0)
		if res := dst.Ingest(pkts[0]); res != dissem.Stored {
			t.Fatalf("page 2 packet %d: %v", idx, res)
		}
	}
	held := append([]*core.Unit(nil), dst.units...)
	dst.WipeVolatile()
	if dst.CompleteUnits() != 3 || len(dst.units) != len(held) {
		t.Fatalf("crash lost flash state: complete %d", dst.CompleteUnits())
	}
	for i := range held {
		if dst.units[i] != held[i] {
			t.Fatalf("entry %d changed across the crash", i)
		}
	}
	for idx := 0; idx < dst.PacketsInUnit(3); idx++ {
		if dst.HasPacket(3, idx) {
			t.Fatalf("in-progress packet %d survived the crash", idx)
		}
	}
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		for idx := 0; idx < dst.PacketsInUnit(u); idx++ {
			pkts, _ := src.Packets(u, []int{idx}, 0)
			dst.Ingest(pkts[0])
		}
	}
	if !dst.MatchesImage(f.data) {
		t.Fatal("image mismatch after reboot")
	}
	if dst.buf != nil {
		t.Fatal("in-progress buffer kept after every unit is held")
	}
}

func TestStoreKeepsVersionsApart(t *testing.T) {
	f := newFixture(t, 200)
	dataV2 := image.Random(200, 9)
	objV2, err := Build(BuildInput{Version: 2, Image: dataV2, Params: testParams(), Key: f.key, Chain: f.chain, Puzzle: f.pp})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	v1 := f.receiver(t)
	relay(t, Preload(f.obj, f.sigCtx()), v1, rng)
	v2, err := NewHandler(2, testParams(), f.store, f.sigCtx())
	if err != nil {
		t.Fatal(err)
	}
	relay(t, Preload(objV2, f.sigCtx()), v2, rng)

	if !v1.MatchesImage(f.data) || !v2.MatchesImage(dataV2) {
		t.Fatal("an upgraded store mixed up version content")
	}
	if v1.MatchesImage(dataV2) || v2.MatchesImage(f.data) {
		t.Fatal("a node matches the other version's image")
	}
	for u := 1; u < v1.TotalUnits(); u++ {
		a, b := f.store.Lookup(f.obj.Root(), u), f.store.Lookup(objV2.Root(), u)
		if a == nil || b == nil || a == b {
			t.Fatalf("unit %d: versions not held apart (%p, %p)", u, a, b)
		}
	}
}
