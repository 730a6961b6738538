package core

import (
	"bytes"
	"math/rand"
	"testing"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/metrics"
)

func testParams() image.Params {
	return image.Params{PacketPayload: 32, K: 4, N: 6}
}

type fixture struct {
	obj    *Object
	data   []byte
	key    *sign.KeyPair
	chain  *puzzle.Chain
	pp     puzzle.Params
	col    *metrics.Collector
	store  *Store
	sigCtx func() *dissem.SigContext
}

func newFixture(t *testing.T, size int, params image.Params) *fixture {
	t.Helper()
	key, err := sign.GenerateDeterministic(6)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := puzzle.NewChain([]byte("core-test"), 4)
	if err != nil {
		t.Fatal(err)
	}
	pp := puzzle.Params{Strength: 4}
	data := image.Random(size, 3)
	obj, err := Build(BuildInput{Version: 1, Image: data, Params: params, Key: key, Chain: chain, Puzzle: pp})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New()
	f := &fixture{obj: obj, data: data, key: key, chain: chain, pp: pp, col: col, store: NewStore()}
	f.sigCtx = func() *dissem.SigContext {
		return &dissem.SigContext{Pub: key.Public(), Commitment: chain.Commitment(), Puzzle: pp, Col: col}
	}
	return f
}

func (f *fixture) receiver(t *testing.T, params image.Params) *Handler {
	t.Helper()
	h, err := NewHandler(1, params, f.store, f.sigCtx())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func bootstrap(t *testing.T, f *fixture, dst *Handler) *Handler {
	t.Helper()
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(0)
	if !dst.PreVerifySig(sig) {
		t.Fatal("genuine signature failed weak check")
	}
	if res := dst.IngestSig(sig); res != dissem.UnitComplete {
		t.Fatalf("sig ingest: %v", res)
	}
	return src
}

// deliverSubset feeds dst an arbitrary subset of each unit's packets (chosen
// by rng) of size exactly NeededInUnit — the loss-resilience contract.
func deliverSubset(t *testing.T, src, dst *Handler, rng *rand.Rand) {
	t.Helper()
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		n := dst.PacketsInUnit(u)
		need := dst.NeededInUnit(u)
		idxs := rng.Perm(n)[:need]
		before := dst.CompleteUnits()
		for _, idx := range idxs {
			pkts, err := src.Packets(u, []int{idx}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res := dst.Ingest(pkts[0]); res == dissem.Rejected {
				t.Fatalf("unit %d idx %d rejected", u, idx)
			}
		}
		if dst.CompleteUnits() != before+1 {
			t.Fatalf("unit %d incomplete after %d packets", u, need)
		}
	}
}

func TestAnyKPrimeSubsetRecoversImage(t *testing.T) {
	f := newFixture(t, 300, testParams())
	for seed := int64(0); seed < 10; seed++ {
		dst := f.receiver(t, testParams())
		src := bootstrap(t, f, dst)
		deliverSubset(t, src, dst, rand.New(rand.NewSource(seed)))
		if !dst.MatchesImage(f.data) {
			t.Fatalf("seed %d: image mismatch", seed)
		}
	}
}

func TestReceiverRegeneratesIdenticalPackets(t *testing.T) {
	// The crux of LR-Seluge: any node that decoded a page can regenerate
	// exactly the packets the base station built (same code instance), so
	// hash chaining keeps verifying across hops.
	f := newFixture(t, 300, testParams())
	mid := f.receiver(t, testParams())
	src := bootstrap(t, f, mid)
	deliverSubset(t, src, mid, rand.New(rand.NewSource(1)))

	for u := 1; u < mid.TotalUnits(); u++ {
		for idx := 0; idx < mid.PacketsInUnit(u); idx++ {
			a, err := src.Packets(u, []int{idx}, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mid.Packets(u, []int{idx}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a[0].Payload, b[0].Payload) {
				t.Fatalf("unit %d idx %d: regenerated payload differs", u, idx)
			}
		}
	}
}

func TestRelayedTransferVerifies(t *testing.T) {
	f := newFixture(t, 300, testParams())
	mid := f.receiver(t, testParams())
	src := bootstrap(t, f, mid)
	deliverSubset(t, src, mid, rand.New(rand.NewSource(2)))

	dst := f.receiver(t, testParams())
	sig := mid.SigPacket(3)
	if !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
		t.Fatal("relayed signature rejected")
	}
	deliverSubset(t, mid, dst, rand.New(rand.NewSource(3)))
	if !dst.MatchesImage(f.data) {
		t.Fatal("relayed image mismatch")
	}
}

func TestForgedPacketsRejected(t *testing.T) {
	f := newFixture(t, 300, testParams())
	dst := f.receiver(t, testParams())
	src := bootstrap(t, f, dst)

	// Forged M0 shard.
	m0, _ := src.Packets(1, []int{0}, 0)
	forged := *m0[0]
	forged.Payload = append([]byte(nil), m0[0].Payload...)
	forged.Payload[0] ^= 1
	if res := dst.Ingest(&forged); res != dissem.Rejected {
		t.Fatalf("forged M0: %v", res)
	}

	// Complete M0, then forge page packets.
	for idx := 0; idx < dst.NeededInUnit(1); idx++ {
		pkts, _ := src.Packets(1, []int{idx}, 0)
		dst.Ingest(pkts[0])
	}
	if dst.CompleteUnits() != 2 {
		t.Fatal("M0 should be complete")
	}
	page, _ := src.Packets(2, []int{1}, 0)
	fp := *page[0]
	fp.Payload = append([]byte(nil), page[0].Payload...)
	fp.Payload[3] ^= 0x80
	if res := dst.Ingest(&fp); res != dissem.Rejected {
		t.Fatalf("forged page packet: %v", res)
	}
	// Position replay.
	misplaced := *page[0]
	misplaced.Index = 2
	if res := dst.Ingest(&misplaced); res != dissem.Rejected {
		t.Fatalf("misplaced page packet: %v", res)
	}
	// Wrong payload length.
	short := *page[0]
	short.Payload = page[0].Payload[:len(page[0].Payload)-1]
	if res := dst.Ingest(&short); res != dissem.Rejected {
		t.Fatalf("short page packet: %v", res)
	}
}

func TestDuplicateShardsDoNotComplete(t *testing.T) {
	f := newFixture(t, 300, testParams())
	dst := f.receiver(t, testParams())
	src := bootstrap(t, f, dst)
	// Feed the same M0 shard repeatedly: the unit must not complete.
	pkts, _ := src.Packets(1, []int{0}, 0)
	if res := dst.Ingest(pkts[0]); res == dissem.Rejected {
		t.Fatal("genuine shard rejected")
	}
	for i := 0; i < 10; i++ {
		if res := dst.Ingest(pkts[0]); res != dissem.Duplicate {
			t.Fatalf("duplicate ingest: %v", res)
		}
	}
	if dst.CompleteUnits() != 1 {
		t.Fatal("duplicates advanced completion")
	}
}

func TestPageByPageGating(t *testing.T) {
	f := newFixture(t, 300, testParams())
	dst := f.receiver(t, testParams())
	src := bootstrap(t, f, dst)
	page, _ := src.Packets(2, []int{0}, 0)
	if res := dst.Ingest(page[0]); res != dissem.Stale {
		t.Fatalf("page before M0: %v", res)
	}
}

func TestTotalUnitsUnknownUntilSig(t *testing.T) {
	f := newFixture(t, 300, testParams())
	dst := f.receiver(t, testParams())
	if dst.TotalUnits() != 0 || dst.CompleteUnits() != 0 || !dst.WantsSig() {
		t.Fatal("fresh handler state wrong")
	}
	dst.LearnTotal(99) // unauthenticated hints must be ignored
	if dst.TotalUnits() != 0 {
		t.Fatal("unauthenticated total accepted")
	}
}

func TestGeometryMatchesBetweenBuilderAndHandler(t *testing.T) {
	f := newFixture(t, 300, testParams())
	dst := f.receiver(t, testParams())
	if dst.PacketsInUnit(1) != f.obj.M0Packets() {
		t.Fatalf("M0 packet count mismatch: handler %d, builder %d", dst.PacketsInUnit(1), f.obj.M0Packets())
	}
	if dst.NeededInUnit(1) != f.obj.M0Needed() {
		t.Fatal("M0 needed mismatch")
	}
	if dst.PacketsInUnit(2) != testParams().N || dst.NeededInUnit(2) != testParams().K {
		t.Fatal("page unit sizing wrong")
	}
}

func TestM0GeometryRedundancyMatchesPageCode(t *testing.T) {
	for _, n := range []int{8, 16, 48, 56, 64} {
		p := image.Params{PacketPayload: 72, K: 8, N: n}
		if n > 8*4 { // keep LRPageBytes positive for the sweep
			continue
		}
		geom, err := geometryFor(p)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if geom.numEnc*p.K < geom.numPlain*p.N {
			t.Fatalf("n=%d: M0 code less redundant than page code", n)
		}
		if geom.blockSize+geom.depth*8 > p.PacketPayload {
			t.Fatalf("n=%d: M0 packet exceeds payload", n)
		}
	}
}

func TestDefaultParamsGeometry(t *testing.T) {
	geom, err := geometryFor(image.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if geom.numPlain > geom.numEnc || geom.numEnc > 256 {
		t.Fatalf("bad geometry %+v", geom)
	}
}

// TestBlockImagesMatchesJoin pins blockImages to the concatenate-then-split
// reading it replaces, including block sizes where images straddle blocks.
func TestBlockImagesMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 5, 8, 13, 72} {
		blocks := make([][]byte, 7)
		for i := range blocks {
			blocks[i] = make([]byte, size)
			rng.Read(blocks[i])
		}
		joined := image.Join(blocks)
		for n := 0; n*hashx.Size <= len(joined); n++ {
			for off := 0; off+n*hashx.Size <= len(joined); off++ {
				want := hashx.Split(joined[off : off+n*hashx.Size])
				got := blockImages(blocks, off, n)
				if len(got) != len(want) {
					t.Fatalf("size %d off %d n %d: %d images, want %d", size, off, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("size %d off %d n %d: image %d differs", size, off, n, i)
					}
				}
			}
		}
	}
}

func TestPacketsErrors(t *testing.T) {
	f := newFixture(t, 300, testParams())
	src := Preload(f.obj, f.sigCtx())
	if _, err := src.Packets(99, []int{0}, 0); err == nil {
		t.Fatal("unheld unit served")
	}
	if _, err := src.Packets(2, []int{77}, 0); err == nil {
		t.Fatal("bad index served")
	}
	empty := f.receiver(t, testParams())
	if _, err := empty.Packets(1, []int{0}, 0); err == nil {
		t.Fatal("empty handler served")
	}
}

func TestPreloadServesEverything(t *testing.T) {
	f := newFixture(t, 300, testParams())
	src := Preload(f.obj, f.sigCtx())
	if src.CompleteUnits() != src.TotalUnits() {
		t.Fatal("preload incomplete")
	}
	if !src.MatchesImage(f.data) {
		t.Fatal("preload image mismatch")
	}
}
