// Package puzzle implements message-specific puzzles, the weak authenticator
// Seluge and LR-Seluge attach to the signature packet (paper §IV-C.3).
//
// Without the puzzle an adversary could flood forged signature packets and
// force nodes into expensive ECDSA verifications. A message-specific puzzle
// makes every forged packet cost the adversary an expensive brute-force
// search while costing the verifier a single hash: the base station releases
// a one-way-chain key K_v for code version v and publishes a solution s such
// that H(msg || K_v || s) has Strength leading zero bits. Nodes hold the
// chain commitment K_0 and can authenticate K_v with v hash evaluations.
package puzzle

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// KeySize is the wire size of a puzzle key.
const KeySize = 8

// SolutionSize is the wire size of a puzzle solution.
const SolutionSize = 8

// Params configures puzzle difficulty.
type Params struct {
	// Strength is the required number of leading zero bits in the puzzle
	// hash. The paper's reference [14] uses strengths around 20+ bits in
	// deployment; tests and simulations use small values so solving stays
	// cheap.
	Strength uint
}

// ErrUnsolvable is returned when no solution exists within the 64-bit search
// space (practically impossible for sane strengths).
var ErrUnsolvable = errors.New("puzzle: no solution in search space")

// Key is a puzzle key from the base station's one-way key chain.
type Key [KeySize]byte

// Chain is the base station's one-way key chain: K_i = H(K_{i+1}), released
// in increasing version order. Nodes are preloaded with the commitment K_0.
type Chain struct {
	keys []Key // keys[i] is the key for version i; keys[0] is the commitment
}

// NewChain derives a chain of the given length from a seed. Version numbers
// index into [1, length]; version v uses keys[v].
func NewChain(seed []byte, length int) (*Chain, error) {
	if length < 1 {
		return nil, fmt.Errorf("puzzle: chain length %d < 1", length)
	}
	keys := make([]Key, length+1)
	last := sha256.Sum256(append([]byte("lrseluge-puzzle-chain"), seed...))
	copy(keys[length][:], last[:KeySize])
	for i := length - 1; i >= 0; i-- {
		h := sha256.Sum256(keys[i+1][:])
		copy(keys[i][:], h[:KeySize])
	}
	return &Chain{keys: keys}, nil
}

// Commitment returns K_0, the value preloaded on every node.
func (c *Chain) Commitment() Key { return c.keys[0] }

// Key returns the chain key for a code version in [1, len].
func (c *Chain) Key(version int) (Key, error) {
	if version < 1 || version >= len(c.keys) {
		return Key{}, fmt.Errorf("puzzle: version %d outside chain range [1,%d]", version, len(c.keys)-1)
	}
	return c.keys[version], nil
}

// VerifyKey checks that key is the version-th element of the chain with the
// given commitment: hashing it version times must reproduce the commitment.
func VerifyKey(commitment, key Key, version int) bool {
	if version < 1 {
		return false
	}
	cur := key
	for i := 0; i < version; i++ {
		h := sha256.Sum256(cur[:])
		copy(cur[:], h[:KeySize])
	}
	return cur == commitment
}

// Solve brute-forces the least s with H(msg || key || s) having
// params.Strength leading zero bits: the least s Verify accepts. The base
// station runs it once per code image; a simulated signature flooder that
// forges solved packets runs it once per forged packet, so its cost is the
// attacker's.
//
// The search hashes msg || key once and saves that SHA-256 state (the
// midstate). Each candidate restores it and hashes only the 8-byte s and the
// padding: one compression when msg || key leaves at least 17 bytes in its
// last block, where check does two for a Sig packet. The digest and the
// saved state are allocated once per solve, nothing per candidate.
func Solve(params Params, msg []byte, key Key) (uint64, error) {
	h := sha256.New()
	h.Write(msg)
	h.Write(key[:])
	mid, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return 0, err
	}
	restore := h.(encoding.BinaryUnmarshaler)
	var sbuf [SolutionSize]byte
	var digest [sha256.Size]byte
	for s := uint64(0); ; s++ {
		if err := restore.UnmarshalBinary(mid); err != nil {
			return 0, err
		}
		binary.BigEndian.PutUint64(sbuf[:], s)
		h.Write(sbuf[:])
		if leadingZeroBits(h.Sum(digest[:0])) >= int(params.Strength) {
			return s, nil
		}
		if s == ^uint64(0) {
			return 0, ErrUnsolvable
		}
	}
}

// Verify checks a puzzle solution with a single hash evaluation. This is the
// cheap test nodes apply before attempting the expensive signature
// verification.
func Verify(params Params, msg []byte, key Key, solution uint64) bool {
	return check(params, msg, key, solution)
}

func check(params Params, msg []byte, key Key, solution uint64) bool {
	var sbuf [SolutionSize]byte
	binary.BigEndian.PutUint64(sbuf[:], solution)
	h := sha256.New()
	h.Write(msg)
	h.Write(key[:])
	h.Write(sbuf[:])
	var digest [sha256.Size]byte
	h.Sum(digest[:0])
	return leadingZeroBits(digest[:]) >= int(params.Strength)
}

func leadingZeroBits(b []byte) int {
	total := 0
	for _, x := range b {
		if x == 0 {
			total += 8
			continue
		}
		total += bits.LeadingZeros8(x)
		break
	}
	return total
}
