package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/merkle"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
)

// NewUnit builds an entry from a copy of blocks, which must share one
// length, for tests that plant entries. next and tree are kept as given.
func NewUnit(blocks [][]byte, next []hashx.Image, tree *merkle.Tree) *Unit {
	return &Unit{blocks: copyBlocks(blocks), next: next, tree: tree}
}

// copyBlocks copies equal-length blocks into one backing array.
func copyBlocks(blocks [][]byte) [][]byte {
	size := 0
	if len(blocks) > 0 {
		size = len(blocks[0])
	}
	out := newRows(len(blocks), size)
	for i, b := range blocks {
		copy(out[i], b)
	}
	return out
}

// relay has dst fetch the signature and then a random k'-subset of every
// unit from src.
func relay(t *testing.T, src, dst *Handler, rng *rand.Rand) {
	t.Helper()
	relaySig(t, src, dst)
	deliverSubset(t, src, dst, rng)
}

// relaySig has dst verify src's signature.
func relaySig(t *testing.T, src, dst *Handler) {
	t.Helper()
	if sig := src.SigPacket(0); !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
		t.Fatal("genuine signature rejected")
	}
}

func TestStoreSharesVerifiedUnits(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		holders := []*Handler{Preload(f.obj, f.store, f.sigCtx())}
		rng := rand.New(rand.NewSource(7))
		for len(holders) < 50 {
			dst := f.receiver(t)
			relay(t, holders[rng.Intn(len(holders))], dst, rng)
			holders = append(holders, dst)
		}
		root := f.obj.Root()
		if len(f.store.units) != len(f.obj.units) {
			t.Fatalf("store holds %d entries, want one per unit (%d)", len(f.store.units), len(f.obj.units))
		}
		for i, h := range holders[1:] {
			if !h.MatchesImage(f.data) {
				t.Fatalf("node %d: image mismatch", i+1)
			}
			for u := 1; u < h.TotalUnits(); u++ {
				entry := f.store.Lookup(root, u)
				if entry == nil || h.units[u-1] != entry {
					t.Fatalf("node %d unit %d: held entry is not the store's", i+1, u)
				}
				if !slices.EqualFunc(entry.blocks, f.obj.units[u-1].blocks, bytes.Equal) {
					t.Fatalf("unit %d: store entry differs from the base station's object", u)
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { holders[1].MatchesImage(f.data) }); allocs != 0 {
			t.Fatalf("MatchesImage allocates %.0f times per call", allocs)
		}
		// The store's codecs are the ones every node uses.
		if holders[1].codec != holders[49].codec || holders[1].codec0 != holders[49].codec0 {
			t.Fatal("nodes of one store hold different codec instances")
		}
	})
}

func TestStoreNeverInternsUnverifiedBytes(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dst := f.receiver(t)
		src := bootstrap(t, f, dst)
		// Forged M0 shards are all rejected and leave the store empty.
		for idx := 0; idx < dst.PacketsInUnit(1); idx++ {
			pkts, _ := src.Packet(1, idx, 0)
			forged := *pkts
			forged.Payload = append([]byte(nil), forged.Payload...)
			forged.Payload[0] ^= 1
			if res := dst.Ingest(&forged); res != dissem.Rejected {
				t.Fatalf("forged M0 shard %d: %v", idx, res)
			}
		}
		// One genuine shard short of k0' decodes nothing and interns nothing.
		for idx := 0; idx < dst.NeededInUnit(1)-1; idx++ {
			pkts, _ := src.Packet(1, idx, 0)
			if res := dst.Ingest(pkts); res != dissem.Stored {
				t.Fatalf("genuine M0 shard %d: %v", idx, res)
			}
		}
		if len(f.store.units) != 0 {
			t.Fatalf("store holds %d entries before any unit was decoded", len(f.store.units))
		}
	})
}

// TestPlantedCorruptEntryRejected plants a wrong entry for M0 and for page
// 1: a node fed only genuine packets must reject the unit on the byte
// compare, and never complete holding the wrong bytes.
func TestPlantedCorruptEntryRejected(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		for _, unit := range []int{1, 2} {
			store := NewStore()
			bad := copyBlocks(f.obj.units[unit-1].blocks)
			bad[0][0] ^= 1
			store.Intern(f.obj.Root(), unit, bad, func() *Unit { return NewUnit(bad, f.obj.units[unit-1].next, nil) })

			dst, err := NewHandler(1, s, store, f.sigCtx())
			if err != nil {
				t.Fatal(err)
			}
			src := bootstrap(t, f, dst)
			for u := 1; u < unit; u++ {
				for idx := 0; idx < dst.NeededInUnit(u); idx++ {
					pkts, _ := src.Packet(u, idx, 0)
					dst.Ingest(pkts)
				}
			}
			rejected := false
			for idx := 0; idx < dst.PacketsInUnit(unit); idx++ {
				pkts, _ := src.Packet(unit, idx, 0)
				if dst.Ingest(pkts) == dissem.Rejected {
					rejected = true
				}
				if dst.CompleteUnits() > unit {
					t.Fatalf("unit %d completed against a corrupt entry", unit)
				}
			}
			if !rejected {
				t.Fatalf("unit %d: decode never compared against the planted entry", unit)
			}
			if dst.MatchesImage(f.data) {
				t.Fatalf("unit %d: node claims the image", unit)
			}
		}
	})
}

func TestCrashKeepsHeldEntriesWipesBuffer(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 600, s)
		dst := f.receiver(t)
		src := bootstrap(t, f, dst)
		// Hold M0 and page 1, then two packets of page 2.
		for u := 1; u <= 2; u++ {
			for idx := 0; idx < dst.NeededInUnit(u); idx++ {
				pkts, _ := src.Packet(u, idx, 0)
				dst.Ingest(pkts)
			}
		}
		for idx := 0; idx < 2; idx++ {
			pkts, _ := src.Packet(3, idx, 0)
			if res := dst.Ingest(pkts); res != dissem.Stored {
				t.Fatalf("page 2 packet %d: %v", idx, res)
			}
		}
		held := append([]*Unit(nil), dst.units...)
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
		deliverSubset(t, src, dst, rand.New(rand.NewSource(4)))
		if !dst.MatchesImage(f.data) {
			t.Fatal("image mismatch after reboot")
		}
		if dst.pre != nil {
			t.Fatal("pre-entry slots kept after every unit is held")
		}
	})
}

func TestStoreKeepsVersionsApart(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dataV2 := image.Random(300, 4)
		objV2, err := Build(BuildInput{Version: 2, Image: dataV2, Scheme: s, Key: f.key, Chain: f.chain, Puzzle: f.pp})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		v1 := f.receiver(t)
		relay(t, Preload(f.obj, f.store, f.sigCtx()), v1, rng)
		v2, err := NewHandler(2, s, f.store, f.sigCtx())
		if err != nil {
			t.Fatal(err)
		}
		relay(t, Preload(objV2, f.store, f.sigCtx()), v2, rng)

		if !v1.MatchesImage(f.data) || !v2.MatchesImage(dataV2) {
			t.Fatal("an upgraded store mixed up version content")
		}
		if v1.MatchesImage(dataV2) || v2.MatchesImage(f.data) {
			t.Fatal("a node matches the other version's image")
		}
		if want := len(f.obj.units) + len(objV2.units); len(f.store.units) != want {
			t.Fatalf("store holds %d entries, want %d", len(f.store.units), want)
		}
		for u := 1; u < v1.TotalUnits(); u++ {
			if f.store.Lookup(f.obj.Root(), u) == f.store.Lookup(objV2.Root(), u) {
				t.Fatalf("unit %d: both versions share one entry", u)
			}
		}
	})
}

// TestForgeryAfterValidInOneBatch delivers packets the way one radio batch
// does, every receiver of the run checking through the store's hash memo in
// turn: a genuine page packet, then an Injector-style forgery of it (the
// struct copied, the payload replaced), then the genuine payload replayed
// under another index. The memo remembers the genuine body throughout; only
// the genuine packet may pass, at every receiver.
func TestForgeryAfterValidInOneBatch(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		rcv := make([]*Handler, 3)
		var src *Handler
		for i := range rcv {
			rcv[i] = f.receiver(t)
			src = bootstrap(t, f, rcv[i])
			for idx := 0; idx < rcv[i].NeededInUnit(1); idx++ {
				pkts, _ := src.Packet(1, idx, 0)
				rcv[i].Ingest(pkts)
			}
		}
		page, err := src.Packet(2, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		valid := page
		forged := *valid
		forged.Payload = make([]byte, len(valid.Payload))
		for i := range forged.Payload {
			forged.Payload[i] = byte(i * 7)
		}
		replayed := *valid
		replayed.Index = 2

		if res := rcv[0].Ingest(valid); res != dissem.Stored {
			t.Fatalf("genuine packet: %v", res)
		}
		if res := rcv[1].Ingest(&forged); res != dissem.Rejected {
			t.Fatalf("forgery right after the genuine packet: %v", res)
		}
		if rcv[0].Authentic(&forged) {
			t.Fatal("a receiver holding the genuine packet accepted its forgery")
		}
		if !rcv[2].Authentic(valid) {
			t.Fatal("genuine packet rejected after a forgery")
		}
		if res := rcv[2].Ingest(&replayed); res != dissem.Rejected {
			t.Fatalf("genuine payload under another index: %v", res)
		}
		for i, h := range rcv {
			if h.HasPacket(2, 2) || (i > 0 && h.HasPacket(2, 1)) {
				t.Fatalf("receiver %d stored a packet it never got genuinely", i)
			}
		}
	})
}
