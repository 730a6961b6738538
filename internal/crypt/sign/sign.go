// Package sign wraps ECDSA P-256 signing of the Merkle-tree root.
//
// The network model (paper §III-A) gives the base station a public/private
// key pair whose public half is preloaded on every node; nodes can afford a
// small number of signature verifications per code image (one, in the common
// case). The paper cites 1.12 s for an ECDSA verification on a Tmote Sky;
// the simulator charges that cost as virtual time (see internal/dissem).
package sign

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

// SignatureSize is the byte budget reserved in the signature packet: one
// length byte plus up to 72 bytes of ASN.1 ECDSA P-256 signature. The wire
// format pads to this fixed size so packet accounting is deterministic.
const SignatureSize = 73

// KeyPair is the base station's signing identity. Pairs created by
// GenerateDeterministic sign with a deterministic nonce so identical runs
// produce byte-identical signature packets; pairs from Generate use the
// standard randomized nonce.
type KeyPair struct {
	priv *ecdsa.PrivateKey
	det  bool
}

// PublicKey is the verification half, preloaded on every sensor node.
type PublicKey struct {
	key *ecdsa.PublicKey
}

// Generate creates a fresh P-256 key pair from the given entropy source. A
// nil source falls back to crypto/rand.
//
//lrlint:effects(rand) fresh entropy is the production key path; simulations use GenerateDeterministic
func Generate(entropy io.Reader) (*KeyPair, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), entropy)
	if err != nil {
		return nil, fmt.Errorf("sign: key generation: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// GenerateDeterministic creates a key pair from a seed, for reproducible
// simulations. The private scalar is derived directly from the seed because
// ecdsa.GenerateKey deliberately randomizes its consumption of the entropy
// stream. It must not be used outside tests and simulation setup: simulated
// identities carry no real secrets and determinism is the point.
func GenerateDeterministic(seed int64) (*KeyPair, error) {
	curve := elliptic.P256()
	var seedBuf [8]byte
	binary.BigEndian.PutUint64(seedBuf[:], uint64(seed))
	digest := sha256.Sum256(append([]byte("lrseluge-deterministic-key"), seedBuf[:]...))
	d := new(big.Int).SetBytes(digest[:])
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	d.Mod(d, nMinus1).Add(d, big.NewInt(1))
	priv := &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: curve},
		D:         d,
	}
	priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
	return &KeyPair{priv: priv, det: true}, nil
}

// Public returns the verification key.
func (kp *KeyPair) Public() PublicKey { return PublicKey{key: &kp.priv.PublicKey} }

// Sign produces a fixed-size signature over SHA-256(msg). Deterministic key
// pairs yield the same signature for the same message every time (the ECDSA
// nonce is derived from key and digest, RFC 6979 style); randomized pairs
// draw the nonce from crypto/rand.
//
//lrlint:effects(rand) randomized nonces are the production signing path; deterministic pairs never reach crypto/rand
func (kp *KeyPair) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	var sig []byte
	var err error
	if kp.det {
		sig, err = signDeterministic(kp.priv, digest[:])
	} else {
		sig, err = ecdsa.SignASN1(rand.Reader, kp.priv, digest[:])
	}
	if err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	if len(sig) > SignatureSize-1 {
		return nil, fmt.Errorf("sign: signature of %d bytes exceeds wire budget %d", len(sig), SignatureSize-1)
	}
	out := make([]byte, SignatureSize)
	out[0] = byte(len(sig))
	copy(out[1:], sig)
	return out, nil
}

// Verify checks a fixed-size signature produced by Sign.
func (pk PublicKey) Verify(msg, sig []byte) bool {
	if pk.key == nil || len(sig) != SignatureSize {
		return false
	}
	n := int(sig[0])
	if n <= 0 || n > SignatureSize-1 {
		return false
	}
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(pk.key, digest[:], sig[1:1+n])
}

// Verifier checks signatures under one public key and remembers two
// verdicts: the last accepted and the last rejected (message, signature)
// pair, both copied. A pair equal to a remembered one byte for byte gets its
// verdict again without the curve arithmetic; any other pair is verified and
// replaces the remembered pair of its verdict. Verification is a pure
// function of key, message and signature, so the answers are Verify's; a
// run's nodes all check the one signature their base station broadcast, and
// a flood of distinct forgeries costs one P-256 verification each and two
// remembered pairs in all. A Verifier is not safe for concurrent use.
type Verifier struct {
	pub      PublicKey
	accepted verdict
	rejected verdict
}

// verdict is one remembered (message, signature) pair; seen is false until
// the first one is stored.
type verdict struct {
	msg, sig []byte
	seen     bool
}

func (v *verdict) is(msg, sig []byte) bool {
	return v.seen && bytes.Equal(v.msg, msg) && bytes.Equal(v.sig, sig)
}

func (v *verdict) remember(msg, sig []byte) {
	v.msg = append(v.msg[:0], msg...)
	v.sig = append(v.sig[:0], sig...)
	v.seen = true
}

// NewVerifier returns a Verifier for pk that remembers nothing yet.
func NewVerifier(pk PublicKey) *Verifier { return &Verifier{pub: pk} }

// Verify reports whether sig is pk's signature over msg, exactly as
// PublicKey.Verify does.
func (v *Verifier) Verify(msg, sig []byte) bool {
	switch {
	case v.accepted.is(msg, sig):
		return true
	case v.rejected.is(msg, sig):
		return false
	}
	ok := v.pub.Verify(msg, sig)
	if ok {
		v.accepted.remember(msg, sig)
	} else {
		v.rejected.remember(msg, sig)
	}
	return ok
}

// Valid reports whether the key is usable (non-zero).
func (pk PublicKey) Valid() bool { return pk.key != nil }

// signDeterministic computes a textbook ECDSA signature with a nonce
// derived from the private scalar and the message digest (the construction
// RFC 6979 standardizes, with a single SHA-256 in place of HMAC-DRBG). The
// crypto/ecdsa API offers no nonce control — ecdsa.SignASN1 always folds in
// fresh entropy, which made every run's signature packets differ and broke
// trace-level reproducibility. Like GenerateDeterministic, this is for
// simulation identities only: the scalar arithmetic is not constant-time.
func signDeterministic(priv *ecdsa.PrivateKey, digest []byte) ([]byte, error) {
	curve := priv.Curve
	n := curve.Params().N
	one := big.NewInt(1)
	nMinus1 := new(big.Int).Sub(n, one)

	h := sha256.New()
	h.Write([]byte("lrseluge-deterministic-nonce"))
	h.Write(priv.D.Bytes())
	h.Write(digest)
	k := new(big.Int).SetBytes(h.Sum(nil))
	k.Mod(k, nMinus1).Add(k, one) // k in [1, n-1]

	z := new(big.Int).SetBytes(digest) // SHA-256 matches the P-256 order size
	for {
		x, _ := curve.ScalarBaseMult(k.Bytes())
		r := new(big.Int).Mod(x, n)
		if r.Sign() != 0 {
			s := new(big.Int).Mul(r, priv.D)
			s.Add(s, z)
			s.Mul(s, new(big.Int).ModInverse(k, n))
			s.Mod(s, n)
			if s.Sign() != 0 {
				return encodeASN1Signature(r, s), nil
			}
		}
		// Degenerate r or s: step the nonce (probability ~2^-256).
		k.Sub(k, one).Mod(k, nMinus1).Add(k, one)
	}
}

// encodeASN1Signature renders SEQUENCE { INTEGER r, INTEGER s } in DER, the
// format ecdsa.VerifyASN1 consumes. P-256 bodies stay under 128 bytes, so
// single-byte lengths suffice.
func encodeASN1Signature(r, s *big.Int) []byte {
	derInt := func(v *big.Int) []byte {
		b := v.Bytes()
		if len(b) == 0 {
			b = []byte{0}
		}
		if b[0]&0x80 != 0 {
			b = append([]byte{0}, b...) // keep the INTEGER positive
		}
		return append([]byte{0x02, byte(len(b))}, b...)
	}
	body := append(derInt(r), derInt(s)...)
	return append([]byte{0x30, byte(len(body))}, body...)
}
