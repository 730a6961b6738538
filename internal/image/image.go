// Package image handles code-image partitioning: image -> fixed-size pages
// -> equal-length blocks (paper §IV-C), plus the per-protocol page-capacity
// arithmetic that determines how many pages a given image needs.
//
// All three protocols transmit packets with the same payload budget; they
// differ in how much of each payload is image bytes:
//
//   - Deluge: the whole payload is image data.
//   - Seluge: each payload embeds one 8-byte hash image of the
//     corresponding next-page packet, leaving payload-8 image bytes.
//   - LR-Seluge: each page appends the n hash images of the next page's
//     encoded packets to the page plaintext before erasure-encoding into n
//     payload-sized blocks, leaving k*payload - n*8 image bytes per page.
//
// This is why higher erasure rates n/k shrink per-page image capacity and
// eventually cost extra pages (the slow rise in the paper's Fig. 6).
package image

import (
	"bytes"
	"fmt"
	"math/rand"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/xrand"
)

// Params fixes the packet geometry shared by base station and nodes.
type Params struct {
	// PacketPayload is the data bytes carried per packet (block length).
	PacketPayload int
	// K is the number of source blocks per page.
	K int
	// N is the number of encoded packets per page (LR-Seluge; N = K means
	// no redundancy).
	N int
}

// DefaultParams mirrors the evaluation setup: k = 32 source blocks (the
// paper fixes k = 32 in Fig. 6) and n = 48 encoded packets per page. Rate
// 1.5 is the sweet spot of our own Fig. 6 sweep: the first redundancy steps
// buy most of the loss resilience, while higher rates shrink per-page image
// capacity and cost extra pages (the same trade-off the paper reports).
func DefaultParams() Params {
	return Params{PacketPayload: 72, K: 32, N: 48}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.PacketPayload < 2*hashx.Size {
		return fmt.Errorf("image: payload %d too small (need >= %d)", p.PacketPayload, 2*hashx.Size)
	}
	if p.K < 1 || p.N < p.K || p.N > 255 {
		return fmt.Errorf("image: invalid k=%d n=%d", p.K, p.N)
	}
	if p.LRPageBytes() < 1 {
		return fmt.Errorf("image: k=%d n=%d payload=%d leaves no image capacity per page", p.K, p.N, p.PacketPayload)
	}
	return nil
}

// DelugePageBytes returns image bytes per Deluge page.
func (p Params) DelugePageBytes() int { return p.K * p.PacketPayload }

// SelugePageBytes returns image bytes per Seluge page (one embedded hash
// image per packet).
func (p Params) SelugePageBytes() int { return p.K * (p.PacketPayload - hashx.Size) }

// LRPageBytes returns image bytes per LR-Seluge page (n next-page hash
// images appended to the page plaintext before encoding).
func (p Params) LRPageBytes() int { return p.K*p.PacketPayload - p.N*hashx.Size }

// PagesFor returns how many pages of the given capacity an image of
// imageSize bytes needs.
func PagesFor(imageSize, pageBytes int) int {
	if imageSize <= 0 || pageBytes <= 0 {
		return 0
	}
	return (imageSize + pageBytes - 1) / pageBytes
}

// Partition splits data into pages of pageBytes, zero-padding the final
// page. The result always contains at least one page for non-empty data.
func Partition(data []byte, pageBytes int) ([][]byte, error) {
	if pageBytes <= 0 {
		return nil, fmt.Errorf("image: page size %d must be positive", pageBytes)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("image: empty image")
	}
	g := PagesFor(len(data), pageBytes)
	pages := make([][]byte, g)
	for i := 0; i < g; i++ {
		page := make([]byte, pageBytes)
		start := i * pageBytes
		end := start + pageBytes
		if end > len(data) {
			end = len(data)
		}
		copy(page, data[start:end])
		pages[i] = page
	}
	return pages, nil
}

// Blocks splits a page into k equal blocks; the page length must divide
// evenly (pages are constructed to guarantee this).
func Blocks(page []byte, k int) ([][]byte, error) {
	if k < 1 || len(page)%k != 0 {
		return nil, fmt.Errorf("image: page of %d bytes not divisible into %d blocks", len(page), k)
	}
	size := len(page) / k
	blocks := make([][]byte, k)
	for i := 0; i < k; i++ {
		blocks[i] = page[i*size : (i+1)*size]
	}
	return blocks, nil
}

// Join concatenates blocks back into a page.
func Join(blocks [][]byte) []byte {
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	out := make([]byte, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// Matches reports whether the concatenated pages, zero padding past the
// image's end ignored, are exactly img. It builds no reassembly, so checking
// a received image allocates nothing.
func Matches(pages [][]byte, img []byte) bool {
	rest := img
	for _, page := range pages {
		n := min(len(page), len(rest))
		if !bytes.Equal(page[:n], rest[:n]) {
			return false
		}
		rest = rest[n:]
	}
	return len(rest) == 0
}

// Random generates a deterministic pseudo-random code image for experiments
// and tests.
func Random(size int, seed int64) []byte {
	rng := rand.New(xrand.NewSplitMix(seed))
	data := make([]byte, size)
	for i := range data {
		// The byte rng.Intn(256) returns (Int31n masks Int31, the top 31
		// bits of Int63, to its low 8), without the two calls around it.
		data[i] = byte(rng.Int63() >> 32)
	}
	return data
}
