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
	"lrseluge/internal/packet"
)

// schemes are the configurations every handler and store test runs under:
// LR-Seluge with a 4-6-4 page code, LR-Seluge at rate 1/2 (4-8-4, so some
// k'-subsets are parity only), and Seluge at rate 1 with a payload small
// enough that M0 needs a two-leaf Merkle tree.
var schemes = []struct {
	name   string
	new    func(image.Params) (Scheme, error)
	params image.Params
}{
	{"LR-Seluge", LRSeluge, image.Params{PacketPayload: 32, K: 4, N: 6}},
	{"LR-Seluge-half", LRSeluge, image.Params{PacketPayload: 32, K: 4, N: 8}},
	{"Seluge", Seluge, image.Params{PacketPayload: 24, K: 4, N: 4}},
}

// forEachScheme runs test as one subtest per scheme.
func forEachScheme(t *testing.T, test func(t *testing.T, s Scheme)) {
	for _, c := range schemes {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.new(c.params)
			if err != nil {
				t.Fatal(err)
			}
			test(t, s)
		})
	}
}

type fixture struct {
	scheme Scheme
	obj    *Object
	data   []byte
	key    *sign.KeyPair
	chain  *puzzle.Chain
	pp     puzzle.Params
	col    *metrics.Collector
	store  *Store
	sigCtx func() *dissem.SigContext
}

func newFixture(t testing.TB, size int, s Scheme) *fixture {
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
	obj, err := Build(BuildInput{Version: 1, Image: data, Scheme: s, Key: key, Chain: chain, Puzzle: pp})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New(nil)
	f := &fixture{scheme: s, obj: obj, data: data, key: key, chain: chain, pp: pp, col: col, store: NewStore()}
	// Like a run's, every node's context shares one verifier.
	verifier := sign.NewVerifier(key.Public())
	f.sigCtx = func() *dissem.SigContext {
		return &dissem.SigContext{Key: verifier, Commitment: chain.Commitment(), Puzzle: pp, Col: col}
	}
	return f
}

func (f *fixture) receiver(t *testing.T) *Handler {
	t.Helper()
	h, err := NewHandler(1, f.scheme, f.store, f.sigCtx())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func bootstrap(t *testing.T, f *fixture, dst *Handler) *Handler {
	t.Helper()
	src := Preload(f.obj, f.store, f.sigCtx())
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
// by rng) of size exactly NeededInUnit — the loss-resilience contract. At
// rate 1 the subset is every packet, in random order.
func deliverSubset(t *testing.T, src, dst *Handler, rng *rand.Rand) {
	t.Helper()
	for dst.CompleteUnits() < dst.TotalUnits() {
		u := dst.CompleteUnits()
		n := dst.PacketsInUnit(u)
		need := dst.NeededInUnit(u)
		idxs := rng.Perm(n)[:need]
		before := dst.CompleteUnits()
		for _, idx := range idxs {
			pkts, err := src.Packet(u, idx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res := dst.Ingest(pkts); res == dissem.Rejected {
				t.Fatalf("unit %d idx %d rejected", u, idx)
			}
		}
		if dst.CompleteUnits() != before+1 {
			t.Fatalf("unit %d incomplete after %d packets", u, need)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 200, s)
		pages := image.PagesFor(200, s.pageBytes)
		if f.obj.NumPages() != pages || f.obj.TotalUnits() != pages+2 {
			t.Fatalf("pages=%d units=%d, want %d pages", f.obj.NumPages(), f.obj.TotalUnits(), pages)
		}
		if f.obj.ImageSize() != 200 {
			t.Fatal("image size wrong")
		}
		if f.obj.M0Packets() < 1 || f.obj.M0Needed() > f.obj.M0Packets() {
			t.Fatalf("M0 needs %d of %d packets", f.obj.M0Needed(), f.obj.M0Packets())
		}
	})
}

func TestBuildValidation(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		key, _ := sign.GenerateDeterministic(1)
		chain, _ := puzzle.NewChain([]byte("x"), 2)
		if _, err := Build(BuildInput{Version: 1, Image: []byte{1}, Scheme: s, Chain: chain}); err == nil {
			t.Fatal("missing key accepted")
		}
		if _, err := Build(BuildInput{Version: 1, Image: []byte{1}, Key: key, Chain: chain}); err == nil {
			t.Fatal("zero scheme accepted")
		}
		if _, err := Build(BuildInput{Version: 1, Image: nil, Scheme: s, Key: key, Chain: chain}); err == nil {
			t.Fatal("empty image accepted")
		}
	})
	for _, c := range schemes {
		if _, err := c.new(image.Params{}); err == nil {
			t.Fatalf("%s: invalid params accepted", c.name)
		}
	}
}

// TestHashImagePosition pins each scheme's plaintext layout: page 1's
// plaintext carries the hash images of page 2's packets at (imgOff,
// imgStride) — a tail appendix for LR-Seluge, a per-packet prefix for
// Seluge — and the image bytes everywhere else.
func TestHashImagePosition(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		plain := image.Join(f.obj.units[1].blocks)
		for j := 0; j < s.n; j++ {
			pkts, err := src.Packet(3, j, 0)
			if err != nil {
				t.Fatal(err)
			}
			at := s.imgOff + j*s.imgStride
			if hashx.FromBytes(plain[at:]) != hashx.Sum(pkts.AuthBody()) {
				t.Fatalf("image %d not at byte %d", j, at)
			}
		}
		// The image bytes are where MatchesImage reads them: each block
		// past its first skip bytes, up to pageBytes.
		var data []byte
		for _, b := range f.obj.units[1].blocks {
			data = append(data, b[s.skip:]...)
		}
		if !bytes.Equal(data[:s.pageBytes], f.data[:s.pageBytes]) {
			t.Fatal("page 1's image bytes are not where MatchesImage reads them")
		}
	})
}

func TestAnyKPrimeSubsetRecoversImage(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		for seed := int64(0); seed < 10; seed++ {
			dst := f.receiver(t)
			src := bootstrap(t, f, dst)
			deliverSubset(t, src, dst, rand.New(rand.NewSource(seed)))
			if !dst.MatchesImage(f.data) {
				t.Fatalf("seed %d: image mismatch", seed)
			}
		}
	})
}

func TestReceiverRegeneratesIdenticalPackets(t *testing.T) {
	// The crux of LR-Seluge: any node that decoded a page can regenerate
	// exactly the packets the base station built (same code instance), so
	// hash chaining keeps verifying across hops.
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		mid := f.receiver(t)
		src := bootstrap(t, f, mid)
		deliverSubset(t, src, mid, rand.New(rand.NewSource(1)))

		for u := 1; u < mid.TotalUnits(); u++ {
			for idx := 0; idx < mid.PacketsInUnit(u); idx++ {
				a, err := src.Packet(u, idx, 0)
				if err != nil {
					t.Fatal(err)
				}
				b, err := mid.Packet(u, idx, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Payload, b.Payload) {
					t.Fatalf("unit %d idx %d: regenerated payload differs", u, idx)
				}
			}
		}
	})
}

func TestRelayedTransferVerifies(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		mid := f.receiver(t)
		src := bootstrap(t, f, mid)
		deliverSubset(t, src, mid, rand.New(rand.NewSource(2)))

		dst := f.receiver(t)
		sig := mid.SigPacket(3)
		if !dst.PreVerifySig(sig) || dst.IngestSig(sig) != dissem.UnitComplete {
			t.Fatal("relayed signature rejected")
		}
		deliverSubset(t, mid, dst, rand.New(rand.NewSource(3)))
		if !dst.MatchesImage(f.data) {
			t.Fatal("relayed image mismatch")
		}
	})
}

func TestForgedSignatureRejected(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 200, s)
		dst := f.receiver(t)
		sig := Preload(f.obj, f.store, f.sigCtx()).SigPacket(0)

		// Garbage puzzle: must die at the weak check without a verification.
		forged := *sig
		forged.PuzzleSol++
		if dst.PreVerifySig(&forged) {
			t.Fatal("bad puzzle passed weak check")
		}
		if f.col.SigVerifications() != 0 {
			t.Fatal("weak-check reject charged a signature verification")
		}

		// Valid puzzle but wrong signature bytes: the attacker brute-forced
		// the puzzle; the full verification must reject.
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
	})
}

func TestZeroPagesSignatureRejected(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 200, s)
		dst := f.receiver(t)
		forged := *Preload(f.obj, f.store, f.sigCtx()).SigPacket(0)
		forged.Pages = 0
		// Re-solve the puzzle so it reaches the signature check; the
		// signature itself binds Pages, so verification must fail.
		key, _ := f.chain.Key(1)
		sol, _ := puzzle.Solve(f.pp, forged.PuzzleMessage(), key)
		forged.PuzzleKey = key
		forged.PuzzleSol = sol
		if dst.PreVerifySig(&forged) {
			if res := dst.IngestSig(&forged); res != dissem.Rejected {
				t.Fatalf("pages=0 sig accepted: %v", res)
			}
		}
	})
}

func TestDuplicateSignatureIgnored(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 200, s)
		dst := f.receiver(t)
		sig := bootstrap(t, f, dst).SigPacket(0)
		if dst.PreVerifySig(sig) {
			t.Fatal("second signature passed weak check")
		}
		if res := dst.IngestSig(sig); res != dissem.Duplicate {
			t.Fatalf("duplicate sig: %v", res)
		}
		if dst.WantsSig() {
			t.Fatal("still wants sig after verification")
		}
	})
}

func TestSigPacketStampsSource(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 100, s)
		if sig := Preload(f.obj, f.store, f.sigCtx()).SigPacket(packet.NodeID(9)); sig.Src != 9 {
			t.Fatal("source not stamped")
		}
	})
}

func TestForgedPacketsRejected(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dst := f.receiver(t)
		src := bootstrap(t, f, dst)

		// Forged M0 shard.
		m0, _ := src.Packet(1, 0, 0)
		forged := *m0
		forged.Payload = append([]byte(nil), m0.Payload...)
		forged.Payload[0] ^= 1
		if res := dst.Ingest(&forged); res != dissem.Rejected {
			t.Fatalf("forged M0: %v", res)
		}

		// Complete M0, then forge page packets.
		for idx := 0; idx < dst.NeededInUnit(1); idx++ {
			pkts, _ := src.Packet(1, idx, 0)
			dst.Ingest(pkts)
		}
		if dst.CompleteUnits() != 2 {
			t.Fatal("M0 should be complete")
		}
		page, _ := src.Packet(2, 1, 0)
		for _, at := range []int{3, len(page.Payload) - 1} {
			fp := *page
			fp.Payload = append([]byte(nil), page.Payload...)
			fp.Payload[at] ^= 0x80
			if res := dst.Ingest(&fp); res != dissem.Rejected {
				t.Fatalf("page packet forged at byte %d: %v", at, res)
			}
		}
		// Position replay.
		misplaced := *page
		misplaced.Index = 2
		if res := dst.Ingest(&misplaced); res != dissem.Rejected {
			t.Fatalf("misplaced page packet: %v", res)
		}
		// Wrong payload length.
		short := *page
		short.Payload = page.Payload[:len(page.Payload)-1]
		if res := dst.Ingest(&short); res != dissem.Rejected {
			t.Fatalf("short page packet: %v", res)
		}
	})
}

func TestDuplicateShardsDoNotComplete(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dst := f.receiver(t)
		src := bootstrap(t, f, dst)
		// Feed the same M0 shard repeatedly: the unit must not complete.
		pkts, _ := src.Packet(1, 0, 0)
		if res := dst.Ingest(pkts); res == dissem.Rejected {
			t.Fatal("genuine shard rejected")
		}
		for i := 0; i < 10; i++ {
			if res := dst.Ingest(pkts); res != dissem.Duplicate {
				t.Fatalf("duplicate ingest: %v", res)
			}
		}
		if dst.CompleteUnits() != 1 {
			t.Fatal("duplicates advanced completion")
		}
	})
}

func TestPageByPageGating(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dst := f.receiver(t)
		src := Preload(f.obj, f.store, f.sigCtx())
		// Data before the signature: nothing can be authenticated.
		m0, _ := src.Packet(1, 0, 0)
		if res := dst.Ingest(m0); res != dissem.Stale {
			t.Fatalf("M0 before the signature: %v", res)
		}
		bootstrap(t, f, dst)
		page, _ := src.Packet(2, 0, 0)
		if res := dst.Ingest(page); res != dissem.Stale {
			t.Fatalf("page before M0: %v", res)
		}
	})
}

func TestTotalUnitsUnknownUntilSig(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dst := f.receiver(t)
		if dst.TotalUnits() != 0 || dst.CompleteUnits() != 0 || !dst.WantsSig() {
			t.Fatal("fresh handler state wrong")
		}
		dst.LearnTotal(99) // unauthenticated hints must be ignored
		if dst.TotalUnits() != 0 {
			t.Fatal("unauthenticated total accepted")
		}
	})
}

func TestGeometryMatchesBetweenBuilderAndHandler(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		dst := f.receiver(t)
		if dst.PacketsInUnit(1) != f.obj.M0Packets() {
			t.Fatalf("M0 packet count mismatch: handler %d, builder %d", dst.PacketsInUnit(1), f.obj.M0Packets())
		}
		if dst.NeededInUnit(1) != f.obj.M0Needed() {
			t.Fatal("M0 needed mismatch")
		}
		if dst.PacketsInUnit(2) != s.n || dst.NeededInUnit(2) != s.params.K {
			t.Fatal("page unit sizing wrong")
		}
	})
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

// TestM0GeometryFitsPayload checks Seluge's even split: a block plus its
// proof fits the payload, n0 = 2^d and k0 = n0.
func TestM0GeometryFitsPayload(t *testing.T) {
	for _, k := range []int{4, 16, 32, 64} {
		geom, err := splitGeometry(k*hashx.Size, 72)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if geom.blockSize+geom.depth*hashx.Size > 72 {
			t.Fatalf("k=%d: block %d + proof %d exceeds payload", k, geom.blockSize, geom.depth*hashx.Size)
		}
		if geom.numEnc != 1<<geom.depth || geom.numPlain != geom.numEnc {
			t.Fatalf("k=%d: n0 %d k0 %d at depth %d", k, geom.numEnc, geom.numPlain, geom.depth)
		}
	}
	if _, err := splitGeometry(1<<20, 24); err == nil {
		t.Fatal("impossible geometry accepted")
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

// TestBlockImagesMatchesJoin pins blockImages to the concatenate-then-read
// reading it replaces, including block sizes where images straddle blocks
// and strides that leave gaps between images.
func TestBlockImagesMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 5, 8, 13, 72} {
		blocks := make([][]byte, 7)
		for i := range blocks {
			blocks[i] = make([]byte, size)
			rng.Read(blocks[i])
		}
		joined := image.Join(blocks)
		for _, stride := range []int{hashx.Size, hashx.Size + 3} {
			for n := 0; n*stride <= len(joined); n++ {
				for off := 0; off+max(n-1, 0)*stride+hashx.Size <= len(joined); off++ {
					got := blockImages(blocks, off, stride, n)
					if len(got) != n {
						t.Fatalf("size %d off %d n %d: %d images", size, off, n, len(got))
					}
					for i := range got {
						if want := hashx.FromBytes(joined[off+i*stride:]); got[i] != want {
							t.Fatalf("size %d off %d stride %d: image %d differs", size, off, stride, i)
						}
					}
				}
			}
		}
	}
}

func TestPacketsErrors(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		if _, err := src.Packet(99, 0, 0); err == nil {
			t.Fatal("unheld unit served")
		}
		if _, err := src.Packet(2, 77, 0); err == nil {
			t.Fatal("bad index served")
		}
		empty := f.receiver(t)
		if _, err := empty.Packet(1, 0, 0); err == nil {
			t.Fatal("empty handler served")
		}
	})
}

func TestPreloadServesEverything(t *testing.T) {
	forEachScheme(t, func(t *testing.T, s Scheme) {
		f := newFixture(t, 300, s)
		src := Preload(f.obj, f.store, f.sigCtx())
		if src.CompleteUnits() != src.TotalUnits() {
			t.Fatal("preload incomplete")
		}
		if !src.MatchesImage(f.data) {
			t.Fatal("preload image mismatch")
		}
	})
}
