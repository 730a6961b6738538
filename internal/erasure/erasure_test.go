package erasure

import (
	"bytes"
	"testing"
)

func TestNewReedSolomonAccessors(t *testing.T) {
	c, err := NewReedSolomon(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 8 || c.N() != 12 || c.KPrime() != 8 {
		t.Fatalf("accessors wrong: %d %d %d", c.K(), c.N(), c.KPrime())
	}
}

func TestNewReedSolomonRejectsBadParams(t *testing.T) {
	if _, err := NewReedSolomon(10, 5); err == nil {
		t.Fatal("n < k accepted")
	}
}

// TestRateOneCopies pins the rate-1 code Seluge runs on: encoding copies the
// blocks, decoding needs every one of them.
func TestRateOneCopies(t *testing.T) {
	c, err := NewReedSolomon(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	enc, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(enc[i], data[i]) || &enc[i][0] == &data[i][0] {
			t.Fatalf("block %d: encoding is not a copy", i)
		}
	}
	got := [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2)}
	if err := c.DecodeInto(enc, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("block %d: round trip failed", i)
		}
	}
	if err := c.DecodeInto([][]byte{enc[0], nil, enc[2]}, got); err == nil {
		t.Fatal("decoded with a block missing")
	}
}
