package seluge

import (
	"testing"

	"lrseluge/internal/core"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/dissem"
	"lrseluge/internal/image"
	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
)

func testParams() image.Params {
	return image.Params{PacketPayload: 24, K: 4, N: 4}
}

type fixture struct {
	obj    *Object
	data   []byte
	key    *sign.KeyPair
	chain  *puzzle.Chain
	pp     puzzle.Params
	col    *metrics.Collector
	store  *core.Store
	sigCtx func() *dissem.SigContext
}

func newFixture(t *testing.T, size int) *fixture {
	t.Helper()
	key, err := sign.GenerateDeterministic(5)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := puzzle.NewChain([]byte("test"), 4)
	if err != nil {
		t.Fatal(err)
	}
	pp := puzzle.Params{Strength: 4}
	data := image.Random(size, 2)
	obj, err := Build(BuildInput{Version: 1, Image: data, Params: testParams(), Key: key, Chain: chain, Puzzle: pp})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New()
	f := &fixture{obj: obj, data: data, key: key, chain: chain, pp: pp, col: col, store: core.NewStore()}
	f.sigCtx = func() *dissem.SigContext {
		return &dissem.SigContext{Pub: key.Public(), Commitment: chain.Commitment(), Puzzle: pp, Col: col}
	}
	return f
}

func (f *fixture) receiver(t *testing.T) *Handler {
	t.Helper()
	h, err := NewHandler(1, testParams(), f.store, f.sigCtx())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// deliver pushes the signature and then every packet of every unit from a
// preloaded source into dst, asserting completion.
func deliver(t *testing.T, f *fixture, dst *Handler) {
	t.Helper()
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(0)
	if !dst.PreVerifySig(sig) {
		t.Fatal("genuine signature failed weak check")
	}
	if res := dst.IngestSig(sig); res != dissem.UnitComplete {
		t.Fatalf("sig ingest: %v", res)
	}
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		npkts := dst.PacketsInUnit(u)
		before := dst.CompleteUnits()
		for idx := 0; idx < npkts; idx++ {
			pkts, err := src.Packets(u, []int{idx}, 0)
			if err != nil {
				t.Fatal(err)
			}
			res := dst.Ingest(pkts[0])
			if res == dissem.Rejected {
				t.Fatalf("unit %d idx %d rejected", u, idx)
			}
		}
		if dst.CompleteUnits() != before+1 {
			t.Fatalf("unit %d did not complete", u)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	f := newFixture(t, 200)
	// Page bytes = 4*(24-8) = 64 -> 4 pages; units = 6.
	if f.obj.NumPages() != 4 || f.obj.TotalUnits() != 6 {
		t.Fatalf("pages=%d units=%d", f.obj.NumPages(), f.obj.TotalUnits())
	}
	if f.obj.ImageSize() != 200 {
		t.Fatal("image size wrong")
	}
	if f.obj.M0Packets() < 1 {
		t.Fatal("no hash-page packets")
	}
}

func TestEndToEndAuthenticatedTransfer(t *testing.T) {
	f := newFixture(t, 200)
	dst := f.receiver(t)
	deliver(t, f, dst)
	if !dst.MatchesImage(f.data) {
		t.Fatal("image mismatch after authenticated transfer")
	}
}

func TestReceiverCanServeAfterDecoding(t *testing.T) {
	f := newFixture(t, 200)
	mid := f.receiver(t)
	deliver(t, f, mid)
	// A second receiver fed entirely from the first one must also verify.
	dst := f.receiver(t)
	sig := mid.SigPacket(7)
	if !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
		t.Fatal("relayed signature rejected")
	}
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		for idx := 0; idx < dst.PacketsInUnit(u); idx++ {
			pkts, err := mid.Packets(u, []int{idx}, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res := dst.Ingest(pkts[0]); res == dissem.Rejected {
				t.Fatalf("relayed packet unit %d idx %d rejected", u, idx)
			}
		}
	}
	if !dst.MatchesImage(f.data) {
		t.Fatal("relayed image mismatch")
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	f := newFixture(t, 200)
	dst := f.receiver(t)
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(0)

	// Garbage puzzle: must die at the weak check without a verification.
	forged := *sig
	forged.PuzzleSol++
	if dst.PreVerifySig(&forged) {
		t.Fatal("bad puzzle passed weak check")
	}
	if f.col.PuzzleRejects() == 0 {
		t.Fatal("puzzle reject not counted")
	}

	// Valid puzzle but wrong signature bytes: attacker brute-forced the
	// puzzle; the full verification must reject.
	forged2 := *sig
	forged2.Signature = append([]byte(nil), sig.Signature...)
	forged2.Signature[10] ^= 1
	key, _ := f.chain.Key(1)
	sol, err := puzzle.Solve(f.pp, forged2.PuzzleMessage(), key)
	if err != nil {
		t.Fatal(err)
	}
	forged2.PuzzleKey = key
	forged2.PuzzleSol = sol
	if !dst.PreVerifySig(&forged2) {
		t.Fatal("solved puzzle should pass weak check")
	}
	if res := dst.IngestSig(&forged2); res != dissem.Rejected {
		t.Fatalf("forged signature ingest: %v", res)
	}
}

func TestForgedDataRejectedImmediately(t *testing.T) {
	f := newFixture(t, 200)
	dst := f.receiver(t)
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(0)
	dst.PreVerifySig(sig)
	dst.IngestSig(sig)

	// Forged M0 packet: wrong payload with a stale proof.
	genuine, _ := src.Packets(1, []int{0}, 0)
	forged := *genuine[0]
	forged.Payload = append([]byte(nil), genuine[0].Payload...)
	forged.Payload[0] ^= 1
	if res := dst.Ingest(&forged); res != dissem.Rejected {
		t.Fatalf("forged M0 packet: %v", res)
	}

	// Complete M0 legitimately, then forge a page packet.
	for idx := 0; idx < dst.PacketsInUnit(1); idx++ {
		pkts, _ := src.Packets(1, []int{idx}, 0)
		dst.Ingest(pkts[0])
	}
	page, _ := src.Packets(2, []int{0}, 0)
	forgedPage := *page[0]
	forgedPage.Payload = append([]byte(nil), page[0].Payload...)
	forgedPage.Payload[len(forgedPage.Payload)-1] ^= 1
	if res := dst.Ingest(&forgedPage); res != dissem.Rejected {
		t.Fatalf("forged page packet: %v", res)
	}
	// Replay at the wrong index must fail (position binding).
	misplaced := *page[0]
	misplaced.Index = 1
	if res := dst.Ingest(&misplaced); res != dissem.Rejected {
		t.Fatalf("misplaced packet: %v", res)
	}
}

func TestPageByPageOrderEnforced(t *testing.T) {
	f := newFixture(t, 200)
	dst := f.receiver(t)
	src := Preload(f.obj, f.sigCtx())
	// Data before the signature: nothing can be authenticated.
	pkts, _ := src.Packets(1, []int{0}, 0)
	if res := dst.Ingest(pkts[0]); res != dissem.Stale {
		t.Fatalf("pre-signature ingest: %v", res)
	}
	sig := src.SigPacket(0)
	dst.PreVerifySig(sig)
	dst.IngestSig(sig)
	// Page data before the hash page completes: stale (cannot verify).
	page, _ := src.Packets(2, []int{0}, 0)
	if res := dst.Ingest(page[0]); res != dissem.Stale {
		t.Fatalf("out-of-order page ingest: %v", res)
	}
}

func TestDuplicateSignatureIgnored(t *testing.T) {
	f := newFixture(t, 200)
	dst := f.receiver(t)
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(0)
	dst.PreVerifySig(sig)
	dst.IngestSig(sig)
	if dst.PreVerifySig(sig) {
		t.Fatal("second signature passed weak check")
	}
	if res := dst.IngestSig(sig); res != dissem.Duplicate {
		t.Fatalf("duplicate sig: %v", res)
	}
	if dst.WantsSig() {
		t.Fatal("still wants sig after verification")
	}
}

func TestZeroPagesSignatureRejected(t *testing.T) {
	f := newFixture(t, 200)
	dst := f.receiver(t)
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(0)
	forged := *sig
	forged.Pages = 0
	// Re-solve the puzzle so it reaches the signature check; the signature
	// itself binds Pages, so verification must fail.
	key, _ := f.chain.Key(1)
	sol, _ := puzzle.Solve(f.pp, forged.PuzzleMessage(), key)
	forged.PuzzleKey = key
	forged.PuzzleSol = sol
	if dst.PreVerifySig(&forged) {
		if res := dst.IngestSig(&forged); res != dissem.Rejected {
			t.Fatalf("pages=0 sig accepted: %v", res)
		}
	}
}

func TestM0GeometryFitsPayload(t *testing.T) {
	for _, k := range []int{4, 16, 32, 64} {
		geom, err := geometryFor(k*8, 72)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if geom.blockSize+geom.depth*8 > 72 {
			t.Fatalf("k=%d: block %d + proof %d exceeds payload", k, geom.blockSize, geom.depth*8)
		}
		if geom.numBlocks != 1<<geom.depth {
			t.Fatalf("k=%d: n0 %d != 2^%d", k, geom.numBlocks, geom.depth)
		}
	}
	if _, err := geometryFor(1<<20, 24); err == nil {
		t.Fatal("impossible geometry accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	key, _ := sign.GenerateDeterministic(1)
	chain, _ := puzzle.NewChain([]byte("x"), 2)
	if _, err := Build(BuildInput{Version: 1, Image: []byte{1}, Params: testParams(), Chain: chain, Puzzle: puzzle.Params{}}); err == nil {
		t.Fatal("missing key accepted")
	}
	if _, err := Build(BuildInput{Version: 1, Image: []byte{1}, Params: image.Params{}, Key: key, Chain: chain}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := Build(BuildInput{Version: 1, Image: nil, Params: testParams(), Key: key, Chain: chain}); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestSigPacketStampsSource(t *testing.T) {
	f := newFixture(t, 100)
	src := Preload(f.obj, f.sigCtx())
	sig := src.SigPacket(packet.NodeID(9))
	if sig.Src != 9 {
		t.Fatal("source not stamped")
	}
}
