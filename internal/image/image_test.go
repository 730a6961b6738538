package image

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/xrand"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{DefaultParams(), true},
		{Params{PacketPayload: 72, K: 1, N: 1}, true},
		{Params{PacketPayload: 8, K: 4, N: 8}, false},   // payload too small
		{Params{PacketPayload: 72, K: 0, N: 4}, false},  // k < 1
		{Params{PacketPayload: 72, K: 8, N: 4}, false},  // n < k
		{Params{PacketPayload: 72, K: 2, N: 60}, false}, // no page capacity left
	}
	for i, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: err=%v want ok=%v", i, err, c.ok)
		}
	}
}

func TestPageByteArithmetic(t *testing.T) {
	p := Params{PacketPayload: 72, K: 32, N: 48}
	if got := p.DelugePageBytes(); got != 32*72 {
		t.Fatalf("deluge page bytes %d", got)
	}
	if got := p.SelugePageBytes(); got != 32*(72-hashx.Size) {
		t.Fatalf("seluge page bytes %d", got)
	}
	if got := p.LRPageBytes(); got != 32*72-48*hashx.Size {
		t.Fatalf("lr page bytes %d", got)
	}
	// Higher rate => smaller page capacity (the Fig. 6 trade-off).
	higher := Params{PacketPayload: 72, K: 32, N: 64}
	if higher.LRPageBytes() >= p.LRPageBytes() {
		t.Fatal("raising n should shrink per-page image capacity")
	}
}

func TestPagesFor(t *testing.T) {
	if PagesFor(100, 50) != 2 || PagesFor(101, 50) != 3 || PagesFor(1, 50) != 1 {
		t.Fatal("PagesFor wrong")
	}
	if PagesFor(0, 50) != 0 || PagesFor(10, 0) != 0 {
		t.Fatal("degenerate PagesFor wrong")
	}
}

func TestPartitionReassembleRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		size := int(seed%5000) + 1
		if size < 0 {
			size = -size + 1
		}
		data := Random(size, seed)
		pageBytes := 512
		pages, err := Partition(data, pageBytes)
		if err != nil {
			return false
		}
		for _, pg := range pages {
			if len(pg) != pageBytes {
				return false
			}
		}
		if !Matches(pages, data) {
			return false
		}
		// A flipped byte anywhere in the image must be caught.
		flipped := append([]byte(nil), data...)
		flipped[size/2] ^= 1
		return !Matches(pages, flipped)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(nil, 10); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := Partition([]byte{1}, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
}

func TestBlocksJoinRoundTrip(t *testing.T) {
	page := Random(96, 1)
	blocks, err := Blocks(page, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 8 || len(blocks[0]) != 12 {
		t.Fatalf("blocks shape wrong: %d x %d", len(blocks), len(blocks[0]))
	}
	if !bytes.Equal(Join(blocks), page) {
		t.Fatal("Join(Blocks(page)) != page")
	}
}

func TestBlocksRequiresDivisibility(t *testing.T) {
	if _, err := Blocks(make([]byte, 10), 3); err == nil {
		t.Fatal("non-divisible page accepted")
	}
}

func TestReassembleTooShort(t *testing.T) {
	if Matches([][]byte{{1, 2}}, []byte{1, 2, 0, 0, 0}) {
		t.Fatal("short reassembly accepted")
	}
}

// TestRandomMatchesIntn pins Random to one rng.Intn(256) draw per byte:
// every image and golden built from it depends on these exact bytes.
func TestRandomMatchesIntn(t *testing.T) {
	for _, seed := range []int64{0, 1, 9, -7, 1 << 40} {
		for _, size := range []int{0, 1, 255, 4096, 20 * 1024} {
			rng := rand.New(xrand.NewSplitMix(seed))
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(rng.Intn(256))
			}
			if got := Random(size, seed); !bytes.Equal(got, want) {
				t.Fatalf("seed %d size %d: Random differs from the Intn(256) loop", seed, size)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	if !bytes.Equal(Random(64, 9), Random(64, 9)) {
		t.Fatal("Random not deterministic for a seed")
	}
	if bytes.Equal(Random(64, 9), Random(64, 10)) {
		t.Fatal("different seeds produced identical images")
	}
}
