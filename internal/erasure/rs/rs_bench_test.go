package rs

import (
	"math/rand"
	"testing"
)

func benchCode(b *testing.B, k, n, size int) (*Code, [][]byte) {
	b.Helper()
	c, err := New(k, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	return c, randBlocks(rng, k, size)
}

func BenchmarkEncode32_48(b *testing.B) {
	c, data := benchCode(b, 32, 48, 72)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeWorstCase32_48(b *testing.B) {
	// Worst case for this geometry: n-k = 16 data shards lost, so decoding
	// needs every parity shard.
	c, data := benchCode(b, 32, 48, 72)
	enc, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 48)
	for i := 32; i < 48; i++ {
		shards[i] = enc[i]
	}
	for i := 0; i < 16; i++ {
		shards[i] = enc[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDecodeLoss decodes a default-geometry page (k = 32 of n = 48, 72-byte
// blocks) with the first m data shards lost, through DecodeInto with a
// recycled output, so the cost shown is the decode alone as it grows with m.
func benchDecodeLoss(b *testing.B, m int) {
	c, data := benchCode(b, 32, 48, 72)
	enc, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 48)
	copy(shards, enc)
	for i := 0; i < m; i++ {
		shards[i] = nil
	}
	out := make([][]byte, 32)
	for i := range out {
		out[i] = make([]byte, 72)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecodeInto(shards, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeLoss1_32_48(b *testing.B)  { benchDecodeLoss(b, 1) }
func BenchmarkDecodeLoss4_32_48(b *testing.B)  { benchDecodeLoss(b, 4) }
func BenchmarkDecodeLoss8_32_48(b *testing.B)  { benchDecodeLoss(b, 8) }
func BenchmarkDecodeLoss16_32_48(b *testing.B) { benchDecodeLoss(b, 16) }

// BenchmarkEncodeDecodePage measures the full per-page hot path of the
// dissemination protocol: encode k data blocks into n shards and recover
// them from a worst-case loss pattern, all through the Into variants with
// recycled buffers, the way the simulator drives the codec per transmission.
func BenchmarkEncodeDecodePage(b *testing.B) {
	const k, n, size = 32, 48, 72
	c, data := benchCode(b, k, n, size)
	enc := make([][]byte, n)
	encBuf := make([]byte, n*size)
	for i := range enc {
		enc[i] = encBuf[i*size : (i+1)*size]
	}
	dec := make([][]byte, k)
	decBuf := make([]byte, k*size)
	for i := range dec {
		dec[i] = decBuf[i*size : (i+1)*size]
	}
	rx := make([][]byte, n)
	b.SetBytes(int64(k * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeInto(data, enc); err != nil {
			b.Fatal(err)
		}
		// Worst case: half the systematic shards lost, parity fills in.
		for j := range rx {
			rx[j] = enc[j]
		}
		for j := 0; j < k/2; j++ {
			rx[j] = nil
		}
		if err := c.DecodeInto(rx, dec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeIntoAllocFree pins the alloc-hotpath contract the lint enforces
// statically: with caller-provided buffers, encoding allocates nothing.
func TestEncodeIntoAllocFree(t *testing.T) {
	const k, n, size = 32, 48, 72
	c, err := New(k, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := randBlocks(rng, k, size)
	out := make([][]byte, n)
	buf := make([]byte, n*size)
	for i := range out {
		out[i] = buf[i*size : (i+1)*size]
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.EncodeInto(data, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeInto allocates %.1f objects per page, want 0", allocs)
	}
}

// TestDecodeIntoAllocBudget pins both decode paths: the systematic fast path
// must be allocation-free, and the reduced path may allocate only its index
// lists, coefficient row and inversion matrices (once per call), bounded
// well below one allocation per block.
func TestDecodeIntoAllocBudget(t *testing.T) {
	const k, n, size = 32, 48, 72
	c, err := New(k, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	enc, err := c.Encode(randBlocks(rng, k, size))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, k)
	buf := make([]byte, k*size)
	for i := range out {
		out[i] = buf[i*size : (i+1)*size]
	}

	systematic := make([][]byte, n)
	copy(systematic, enc[:k])
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.DecodeInto(systematic, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("systematic DecodeInto allocates %.1f objects, want 0", allocs)
	}

	lossy := make([][]byte, n)
	copy(lossy, enc)
	for i := 0; i < k/2; i++ {
		lossy[i] = nil
	}
	// Budget: missing/parity lists, coefficient row, the m x m submatrix and
	// Invert's scratch. The exact count is an implementation detail; the
	// invariant is that it stays O(1) per page (independent of block count
	// and block size), far under one alloc per recovered block.
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.DecodeInto(lossy, out); err != nil {
			t.Fatal(err)
		}
	}); allocs > float64(k)/2 {
		t.Errorf("inversion-path DecodeInto allocates %.1f objects per page, budget %d", allocs, k/2)
	}
}

func BenchmarkDecodeSystematicFastPath(b *testing.B) {
	c, data := benchCode(b, 32, 48, 72)
	enc, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, 48)
	copy(shards, enc[:32])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(shards); err != nil {
			b.Fatal(err)
		}
	}
}
