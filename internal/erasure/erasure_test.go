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

func TestIdentityCodecRoundTrip(t *testing.T) {
	c := Identity(3)
	if c.K() != 3 || c.N() != 3 || c.KPrime() != 3 {
		t.Fatal("identity codec shape wrong")
	}
	data := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	enc, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2)}
	if err := c.DecodeInto(enc, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatal("identity roundtrip failed")
		}
	}
}

func TestIdentityCodecMissingShard(t *testing.T) {
	c := Identity(2)
	if err := c.DecodeInto([][]byte{{1}, nil}, [][]byte{{0}, {0}}); err == nil {
		t.Fatal("missing shard accepted by identity codec")
	}
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Fatal("wrong block count accepted")
	}
}

func TestIdentityCodecCopies(t *testing.T) {
	c := Identity(1)
	data := [][]byte{{9}}
	enc, _ := c.Encode(data)
	enc[0][0] = 1
	if data[0][0] != 9 {
		t.Fatal("identity Encode aliases input")
	}
}
