package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lrseluge/internal/erasure/gf256"
)

func randBlocks(rng *rand.Rand, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		k, n int
		ok   bool
	}{
		{1, 1, true},
		{32, 48, true},
		{1, 256, true},
		{0, 4, false},
		{-1, 4, false},
		{5, 4, false},
		{4, 257, false},
	}
	for _, c := range cases {
		_, err := New(c.k, c.n)
		if (err == nil) != c.ok {
			t.Errorf("New(%d, %d): err=%v, want ok=%v", c.k, c.n, err, c.ok)
		}
	}
}

func TestSystematicEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlocks(rng, 4, 32)
	enc, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 8 {
		t.Fatalf("got %d shards, want 8", len(enc))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(enc[i], data[i]) {
			t.Fatalf("systematic shard %d differs from data", i)
		}
	}
}

func TestEncodeDoesNotAliasInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, _ := New(2, 4)
	data := randBlocks(rng, 2, 8)
	enc, _ := c.Encode(data)
	enc[0][0] ^= 0xff
	if data[0][0] == enc[0][0] {
		t.Fatal("Encode aliases caller data")
	}
}

func TestDecodeAllSubsets(t *testing.T) {
	// Exhaustive any-k-of-n check for a small code: every 3-subset of 6
	// shards must recover the data.
	rng := rand.New(rand.NewSource(3))
	c, err := New(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlocks(rng, 3, 16)
	enc, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			for d := b + 1; d < 6; d++ {
				shards := make([][]byte, 6)
				shards[a] = enc[a]
				shards[b] = enc[b]
				shards[d] = enc[d]
				got, err := c.Decode(shards)
				if err != nil {
					t.Fatalf("decode {%d,%d,%d}: %v", a, b, d, err)
				}
				for i := range data {
					if !bytes.Equal(got[i], data[i]) {
						t.Fatalf("decode {%d,%d,%d}: block %d mismatch", a, b, d, i)
					}
				}
			}
		}
	}
}

func TestDecodeRandomErasures(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(20)
		n := k + r.Intn(20)
		size := 1 + r.Intn(64)
		c, err := New(k, n)
		if err != nil {
			return false
		}
		data := randBlocks(r, k, size)
		enc, err := c.Encode(data)
		if err != nil {
			return false
		}
		// Keep a random k-subset.
		perm := r.Perm(n)
		shards := make([][]byte, n)
		for _, idx := range perm[:k] {
			shards[idx] = enc[idx]
		}
		got, err := c.Decode(shards)
		if err != nil {
			return false
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTooFewShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, _ := New(4, 8)
	data := randBlocks(rng, 4, 8)
	enc, _ := c.Encode(data)
	shards := make([][]byte, 8)
	shards[0] = enc[0]
	shards[5] = enc[5]
	shards[7] = enc[7]
	if _, err := c.Decode(shards); !errors.Is(err, ErrShortData) {
		t.Fatalf("want ErrShortData, got %v", err)
	}
}

func TestDecodeWrongShardCount(t *testing.T) {
	c, _ := New(2, 4)
	if _, err := c.Decode(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("want ErrShardCount, got %v", err)
	}
	if _, err := c.Encode(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("want ErrShardCount, got %v", err)
	}
}

func TestUnevenShardSizes(t *testing.T) {
	c, _ := New(2, 4)
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("want ErrShardSize, got %v", err)
	}
}

func TestKPrimeEqualsK(t *testing.T) {
	c, _ := New(10, 30)
	if c.KPrime() != c.K() || c.K() != 10 || c.N() != 30 {
		t.Fatalf("accessors wrong: k=%d n=%d k'=%d", c.K(), c.N(), c.KPrime())
	}
}

func TestRateOneCode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlocks(rng, 4, 8)
	enc, _ := c.Encode(data)
	got, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatal("rate-1 code roundtrip failed")
		}
	}
}

func TestDecodePrefersSystematicFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _ := New(3, 5)
	data := randBlocks(rng, 3, 8)
	enc, _ := c.Encode(data)
	shards := make([][]byte, 5)
	copy(shards, enc[:3]) // all systematic shards present
	shards[4] = enc[4]
	got, err := c.Decode(shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatal("fast path wrong")
		}
	}
}

// referenceDecode is the textbook erasure decoder the reduced DecodeInto is
// checked against: invert the k x k generator rows of the first k present
// shards and multiply every output block out of them. An MDS code has one
// answer per erasure pattern, so both decoders must agree byte for byte.
func referenceDecode(c *Code, shards [][]byte) ([][]byte, error) {
	size, err := c.scanShards(shards)
	if err != nil {
		return nil, err
	}
	present := make([]int, 0, c.k)
	for i, s := range shards {
		if s != nil && len(present) < c.k {
			present = append(present, i)
		}
	}
	inv, err := c.gen.SelectRows(present).Invert()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.k)
	for r := range out {
		out[r] = make([]byte, size)
		row := inv.Row(r)
		for j, idx := range present {
			gf256.MulSlice(row[j], shards[idx], out[r])
		}
	}
	return out, nil
}

// FuzzDecode drives DecodeInto with arbitrary geometries and erasure
// patterns. The inputs map onto a code with 1 <= k <= 64 and k <= n <= k+64,
// blocks of 1 to 128 bytes, and an erasure bitmap whose bit i erases shard i
// (erasures beyond n-k are ignored, so decoding always has enough shards).
// The decode must return the original blocks and match referenceDecode.
func FuzzDecode(f *testing.F) {
	add := func(k, n, size int, erased []int, seed int64) {
		bitmap := make([]byte, (n+7)/8)
		for _, i := range erased {
			bitmap[i/8] |= 1 << (i % 8)
		}
		f.Add(uint8(k-1), uint8(n-k), uint8(size-1), bitmap, seed)
	}
	add(4, 8, 16, []int{4, 6, 7}, 1)                  // m = 0: only parity lost
	add(4, 8, 16, []int{0, 1, 2, 3}, 2)               // m = k with n >= 2k
	add(6, 6, 9, nil, 3)                              // n = k
	add(5, 6, 11, []int{2}, 4)                        // a single parity shard
	add(32, 48, 72, []int{0, 3, 7, 8, 20, 31, 40}, 5) // default page geometry
	add(32, 48, 72, []int{16, 17, 18, 19, 20, 21}, 6) // default, a run of losses
	f.Fuzz(func(t *testing.T, kRaw, extraRaw, sizeRaw uint8, bitmap []byte, seed int64) {
		k := 1 + int(kRaw)%64
		n := k + int(extraRaw)%65
		size := 1 + int(sizeRaw)%128
		c, err := New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		data := randBlocks(rand.New(rand.NewSource(seed)), k, size)
		enc, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]byte, n)
		copy(shards, enc)
		for i, erased := 0, 0; i < n && i/8 < len(bitmap) && erased < n-k; i++ {
			if bitmap[i/8]>>(i%8)&1 != 0 {
				shards[i] = nil
				erased++
			}
		}
		out := make([][]byte, k)
		for i := range out {
			out[i] = make([]byte, size)
		}
		if err := c.DecodeInto(shards, out); err != nil {
			t.Fatalf("k=%d n=%d: %v", k, n, err)
		}
		ref, err := referenceDecode(c, shards)
		if err != nil {
			t.Fatalf("reference k=%d n=%d: %v", k, n, err)
		}
		for i := range data {
			if !bytes.Equal(out[i], data[i]) {
				t.Fatalf("k=%d n=%d: block %d differs from the original", k, n, i)
			}
			if !bytes.Equal(out[i], ref[i]) {
				t.Fatalf("k=%d n=%d: block %d differs from the reference decode", k, n, i)
			}
		}
	})
}
