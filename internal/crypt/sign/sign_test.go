package sign

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	kp, err := Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("merkle root bytes")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != SignatureSize {
		t.Fatalf("signature size %d, want %d", len(sig), SignatureSize)
	}
	if !kp.Public().Verify(msg, sig) {
		t.Fatal("genuine signature rejected")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	kp, _ := Generate(nil)
	sig, _ := kp.Sign([]byte("a"))
	if kp.Public().Verify([]byte("b"), sig) {
		t.Fatal("signature for different message accepted")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	kp1, _ := Generate(nil)
	kp2, _ := Generate(nil)
	msg := []byte("m")
	sig, _ := kp1.Sign(msg)
	if kp2.Public().Verify(msg, sig) {
		t.Fatal("signature verified under the wrong key")
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	kp, _ := Generate(nil)
	msg := []byte("m")
	sig, _ := kp.Sign(msg)
	pub := kp.Public()

	if pub.Verify(msg, sig[:len(sig)-1]) {
		t.Fatal("truncated signature accepted")
	}
	tampered := append([]byte(nil), sig...)
	tampered[5] ^= 1
	if pub.Verify(msg, tampered) {
		t.Fatal("tampered signature accepted")
	}
	zeroLen := append([]byte(nil), sig...)
	zeroLen[0] = 0
	if pub.Verify(msg, zeroLen) {
		t.Fatal("zero-length inner signature accepted")
	}
	overLen := append([]byte(nil), sig...)
	overLen[0] = SignatureSize
	if pub.Verify(msg, overLen) {
		t.Fatal("overlong inner signature accepted")
	}
}

func TestZeroPublicKeyRejects(t *testing.T) {
	var pk PublicKey
	if pk.Valid() {
		t.Fatal("zero key reported valid")
	}
	if pk.Verify([]byte("m"), make([]byte, SignatureSize)) {
		t.Fatal("zero key verified something")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateDeterministic(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDeterministic(42)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("determinism")
	sig, _ := a.Sign(msg)
	if !b.Public().Verify(msg, sig) {
		t.Fatal("same seed did not reproduce the same key pair")
	}
	c, _ := GenerateDeterministic(43)
	if c.Public().Verify(msg, sig) {
		t.Fatal("different seed verified the signature")
	}
}

func TestSignaturesPadDeterministically(t *testing.T) {
	kp, _ := Generate(nil)
	for i := 0; i < 20; i++ {
		sig, err := kp.Sign([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if len(sig) != SignatureSize {
			t.Fatalf("iteration %d: size %d", i, len(sig))
		}
		inner := int(sig[0])
		// Padding beyond the inner signature must be zero.
		if !bytes.Equal(sig[1+inner:], make([]byte, SignatureSize-1-inner)) {
			t.Fatal("padding not zeroed")
		}
	}
}

func TestDeterministicKeySignsReproducibly(t *testing.T) {
	kp, err := GenerateDeterministic(7)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("merkle root under test")
	sig1, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig1, sig2) {
		t.Error("deterministic key produced differing signatures for the same message")
	}
	if !kp.Public().Verify(msg, sig1) {
		t.Error("deterministic signature failed standard verification")
	}
	if kp.Public().Verify([]byte("other message"), sig1) {
		t.Error("signature verified against wrong message")
	}
	// Distinct messages must not reuse the nonce-derived r component.
	sig3, err := kp.Sign([]byte("a different root"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sig1[:20], sig3[:20]) {
		t.Error("signatures over distinct messages share a prefix; nonce may be reused")
	}
}

func TestRandomizedKeyStillVerifies(t *testing.T) {
	kp, err := Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("randomized path")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !kp.Public().Verify(msg, sig) {
		t.Error("randomized signature failed verification")
	}
}

// TestVerifierMatchesVerify checks the memo against the pairs a flooded
// node meets right after the genuine one: a forged signature over the
// genuine message and the genuine signature over another message are
// rejected, and the genuine pair is accepted again in between.
func TestVerifierMatchesVerify(t *testing.T) {
	kp, err := GenerateDeterministic(3)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("version|pages|root")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), sig...)
	forged[20] ^= 1
	v := NewVerifier(kp.Public())
	for i, c := range []struct {
		msg, sig []byte
		want     bool
	}{
		{msg, sig, true},
		{msg, forged, false},
		{msg, sig, true},
		{[]byte("version|pages|toor"), sig, false},
		{msg, forged, false},
		{msg, sig, true},
	} {
		if got := v.Verify(c.msg, c.sig); got != c.want || got != kp.Public().Verify(c.msg, c.sig) {
			t.Fatalf("check %d: Verifier says %v, want %v", i, got, c.want)
		}
	}
	// The remembered pairs are copies: rewriting the caller's buffers
	// must not carry a verdict over to the new bytes.
	sig[20] ^= 1
	if v.Verify(msg, sig) {
		t.Fatal("a signature rewritten in place kept its remembered verdict")
	}
}

// TestVerifierBoundedUnderFlood feeds the verifier what a solved-puzzle
// signature flood delivers past the weak authenticator: 1,000 forged
// packets, each with a fresh random root and signature. Every one is
// rejected, and the memo holds the same bytes after the flood as after the
// first forgery.
func TestVerifierBoundedUnderFlood(t *testing.T) {
	kp, err := GenerateDeterministic(4)
	if err != nil {
		t.Fatal(err)
	}
	genuine := []byte{0, 1, 5, 1, 2, 3, 4, 5, 6, 7, 8}
	sig, err := kp.Sign(genuine)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(kp.Public())
	if !v.Verify(genuine, sig) {
		t.Fatal("genuine signature rejected")
	}
	rng := rand.New(rand.NewSource(1))
	retained := func() int {
		return cap(v.accepted.msg) + cap(v.accepted.sig) + cap(v.rejected.msg) + cap(v.rejected.sig)
	}
	var after1 int
	for i := 0; i < 1000; i++ {
		msg := append([]byte{0, 1, 5}, make([]byte, 8)...)
		rng.Read(msg[3:])
		forged := make([]byte, SignatureSize)
		rng.Read(forged)
		forged[0] = 70 // a plausible ASN.1 length, as the flooder sends
		if v.Verify(msg, forged) {
			t.Fatalf("forgery %d verified", i)
		}
		if i == 0 {
			after1 = retained()
		} else if retained() != after1 {
			t.Fatalf("memo grew to %d bytes after %d forgeries (%d after the first)", retained(), i+1, after1)
		}
	}
	if !v.Verify(genuine, sig) {
		t.Fatal("genuine signature rejected after the flood")
	}
}
