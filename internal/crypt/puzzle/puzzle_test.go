package puzzle

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestChainKeysVerify(t *testing.T) {
	chain, err := NewChain([]byte("seed"), 5)
	if err != nil {
		t.Fatal(err)
	}
	commit := chain.Commitment()
	for v := 1; v <= 5; v++ {
		key, err := chain.Key(v)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyKey(commit, key, v) {
			t.Fatalf("chain key for version %d failed verification", v)
		}
	}
}

func TestChainKeyWrongVersionFails(t *testing.T) {
	chain, _ := NewChain([]byte("seed"), 5)
	commit := chain.Commitment()
	k2, _ := chain.Key(2)
	if VerifyKey(commit, k2, 1) || VerifyKey(commit, k2, 3) {
		t.Fatal("key verified under the wrong version")
	}
	if VerifyKey(commit, k2, 0) || VerifyKey(commit, k2, -1) {
		t.Fatal("nonpositive version accepted")
	}
}

func TestChainForgedKeyFails(t *testing.T) {
	chain, _ := NewChain([]byte("seed"), 3)
	var forged Key
	forged[0] = 0xde
	if VerifyKey(chain.Commitment(), forged, 1) {
		t.Fatal("forged key verified")
	}
}

func TestChainRangeErrors(t *testing.T) {
	chain, _ := NewChain([]byte("seed"), 3)
	if _, err := chain.Key(0); err == nil {
		t.Fatal("version 0 accepted")
	}
	if _, err := chain.Key(4); err == nil {
		t.Fatal("version beyond chain accepted")
	}
	if _, err := NewChain([]byte("s"), 0); err == nil {
		t.Fatal("zero-length chain accepted")
	}
}

func TestChainDeterministic(t *testing.T) {
	a, _ := NewChain([]byte("same"), 4)
	b, _ := NewChain([]byte("same"), 4)
	if a.Commitment() != b.Commitment() {
		t.Fatal("same seed gave different chains")
	}
	c, _ := NewChain([]byte("other"), 4)
	if a.Commitment() == c.Commitment() {
		t.Fatal("different seeds gave same chain")
	}
}

func TestSolveVerify(t *testing.T) {
	params := Params{Strength: 10}
	chain, _ := NewChain([]byte("s"), 1)
	key, _ := chain.Key(1)
	msg := []byte("signature packet bytes")
	sol, err := Solve(params, msg, key)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(params, msg, key, sol) {
		t.Fatal("solution rejected")
	}
}

func TestVerifyRejectsWrongInputs(t *testing.T) {
	params := Params{Strength: 12}
	chain, _ := NewChain([]byte("s"), 1)
	key, _ := chain.Key(1)
	msg := []byte("m")
	sol, _ := Solve(params, msg, key)

	if Verify(params, []byte("other"), key, sol) {
		t.Fatal("solution verified for a different message")
	}
	var otherKey Key
	otherKey[3] = 7
	if Verify(params, msg, otherKey, sol) {
		t.Fatal("solution verified under a different key")
	}
	// A random wrong solution should almost surely fail at strength 12.
	if Verify(params, msg, key, sol+1) && Verify(params, msg, key, sol+2) && Verify(params, msg, key, sol+3) {
		t.Fatal("multiple wrong solutions verified; puzzle is vacuous")
	}
}

func TestZeroStrengthAlwaysVerifies(t *testing.T) {
	params := Params{Strength: 0}
	var key Key
	if !Verify(params, []byte("m"), key, 12345) {
		t.Fatal("strength-0 puzzle rejected a solution")
	}
}

func TestHigherStrengthHarder(t *testing.T) {
	chain, _ := NewChain([]byte("s"), 1)
	key, _ := chain.Key(1)
	msg := []byte("m")
	solLow, _ := Solve(Params{Strength: 4}, msg, key)
	solHigh, _ := Solve(Params{Strength: 14}, msg, key)
	// A strength-14 solution also satisfies strength 4, not vice versa in
	// general.
	if !Verify(Params{Strength: 4}, msg, key, solHigh) {
		t.Fatal("stronger solution rejected at lower strength")
	}
	_ = solLow
}

// naiveSolve is the reference search: check every s from 0 upward, each a
// full hash of msg || key || s, until one is accepted.
func naiveSolve(params Params, msg []byte, key Key) uint64 {
	s := uint64(0)
	for !check(params, msg, key, s) {
		s++
	}
	return s
}

// TestSolveLeastSolution checks the midstate search against the naive scan
// for every message length from 0 to 200 bytes. With the key and solution
// the hashed input is len+16 bytes, so the range crosses every placement of
// the solution and the padding relative to a SHA-256 block boundary.
func TestSolveLeastSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	buf := make([]byte, 200)
	for n := 0; n <= len(buf); n++ {
		msg := buf[:n]
		rng.Read(msg)
		var key Key
		rng.Read(key[:])
		for strength := uint(0); strength <= 10; strength++ {
			params := Params{Strength: strength}
			got, err := Solve(params, msg, key)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveSolve(params, msg, key); got != want {
				t.Fatalf("len %d strength %d: Solve %d, least accepted %d", n, strength, got, want)
			}
		}
	}
}

// FuzzSolve holds Solve to the naive scan on arbitrary messages, keys and
// strengths up to 10.
func FuzzSolve(f *testing.F) {
	f.Add([]byte("signature packet bytes"), uint64(0), uint8(8))
	f.Add([]byte{}, uint64(1), uint8(10))
	f.Add(make([]byte, 47), ^uint64(0), uint8(5))  // msg || key ends 9 bytes before a block boundary
	f.Add(make([]byte, 84), uint64(7), uint8(8))   // the Sig puzzle message size
	f.Add(make([]byte, 120), uint64(42), uint8(3)) // msg || key fills two blocks exactly
	f.Fuzz(func(t *testing.T, msg []byte, k uint64, strength uint8) {
		var key Key
		binary.BigEndian.PutUint64(key[:], k)
		params := Params{Strength: uint(strength % 11)}
		got, err := Solve(params, msg, key)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveSolve(params, msg, key); got != want {
			t.Fatalf("len %d strength %d: Solve %d, least accepted %d", len(msg), params.Strength, got, want)
		}
	})
}

// TestSolveAllocatesPerSolveOnly checks that a strength-10 search, which
// scans about a thousand candidates, allocates no more than a strength-0
// one, which accepts the first: nothing is allocated per candidate.
func TestSolveAllocatesPerSolveOnly(t *testing.T) {
	msg := make([]byte, 84)
	var key Key
	allocs := func(strength uint) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Solve(Params{Strength: strength}, msg, key); err != nil {
				t.Fatal(err)
			}
		})
	}
	if weak, strong := allocs(0), allocs(10); weak != strong {
		t.Fatalf("Solve allocates %.1f times at strength 0 but %.1f at strength 10", weak, strong)
	}
}
