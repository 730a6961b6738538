package dissem

import (
	"testing"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
	"lrseluge/internal/metrics"
	"lrseluge/internal/packet"
)

func newSigFixture(t *testing.T) (*SigContext, *packet.Sig, *metrics.Collector) {
	t.Helper()
	key, err := sign.GenerateDeterministic(9)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := puzzle.NewChain([]byte("auth-test"), 3)
	if err != nil {
		t.Fatal(err)
	}
	pp := puzzle.Params{Strength: 12}
	col := metrics.New(nil)
	ctx := &SigContext{Key: sign.NewVerifier(key.Public()), Commitment: chain.Commitment(), Puzzle: pp, Col: col}

	s := &packet.Sig{Version: 2, Pages: 7, Root: hashx.Sum([]byte("root"))}
	sigBytes, err := key.Sign(s.SignedMessage())
	if err != nil {
		t.Fatal(err)
	}
	s.Signature = sigBytes
	k, err := chain.Key(2)
	if err != nil {
		t.Fatal(err)
	}
	s.PuzzleKey = k
	sol, err := puzzle.Solve(pp, s.PuzzleMessage(), k)
	if err != nil {
		t.Fatal(err)
	}
	s.PuzzleSol = sol
	return ctx, s, col
}

func TestWeakCheckAcceptsGenuine(t *testing.T) {
	ctx, s, col := newSigFixture(t)
	if !ctx.WeakCheck(s) {
		t.Fatal("genuine packet failed weak check")
	}
	if col.SigVerifications() != 0 {
		t.Fatal("weak check charged a signature verification")
	}
}

func TestWeakCheckRejectsWrongKey(t *testing.T) {
	ctx, s, col := newSigFixture(t)
	bad := *s
	bad.PuzzleKey[0] ^= 1
	if ctx.WeakCheck(&bad) {
		t.Fatal("forged chain key passed")
	}
	if col.SigVerifications() != 0 {
		t.Fatal("weak-check reject charged a signature verification")
	}
}

func TestWeakCheckRejectsWrongSolution(t *testing.T) {
	ctx, s, _ := newSigFixture(t)
	bad := *s
	bad.PuzzleSol += 12345
	if ctx.WeakCheck(&bad) {
		t.Fatal("wrong solution passed (puzzle too weak for test)")
	}
}

func TestWeakCheckRejectsKeyVersionMismatch(t *testing.T) {
	ctx, s, _ := newSigFixture(t)
	bad := *s
	bad.Version = 1 // key belongs to version 2
	if ctx.WeakCheck(&bad) {
		t.Fatal("key/version mismatch passed")
	}
}

// TestFullVerify checks forgeries right after the genuine signature, the
// order in which a flooded node meets them: the verifier remembers the
// genuine pair, and neither a forged signature over the genuine message nor
// the genuine signature over another message may ride on it. Every check
// still counts as a verification.
func TestFullVerify(t *testing.T) {
	ctx, s, col := newSigFixture(t)
	if !ctx.FullVerify(s) {
		t.Fatal("genuine signature rejected")
	}
	tampered := *s
	tampered.Root = hashx.Sum([]byte("evil"))
	if ctx.FullVerify(&tampered) {
		t.Fatal("tampered root verified")
	}
	forged := *s
	forged.Signature = append([]byte(nil), s.Signature...)
	forged.Signature[10] ^= 1
	if ctx.FullVerify(&forged) {
		t.Fatal("forged signature verified")
	}
	if !ctx.FullVerify(s) {
		t.Fatal("genuine signature rejected after forgeries")
	}
	if col.SigVerifications() != 4 {
		t.Fatalf("verifications %d, want 4", col.SigVerifications())
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.RxBackoffMax = bad.RxBackoffMin - 1
	if bad.Validate() == nil {
		t.Fatal("inverted backoff accepted")
	}
	bad = DefaultConfig()
	bad.RxRetryTimeout = 0
	if bad.Validate() == nil {
		t.Fatal("zero retry accepted")
	}
	bad = DefaultConfig()
	bad.SNACKServeLimit = -1
	if bad.Validate() == nil {
		t.Fatal("negative serve limit accepted")
	}
	bad = DefaultConfig()
	bad.Trickle.K = 0
	if bad.Validate() == nil {
		t.Fatal("bad trickle config accepted")
	}
}

func TestIngestResultStrings(t *testing.T) {
	for r, want := range map[IngestResult]string{
		Rejected:        "rejected",
		Stale:           "stale",
		Duplicate:       "duplicate",
		Stored:          "stored",
		UnitComplete:    "unit-complete",
		IngestResult(9): "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
}
