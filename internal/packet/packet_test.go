package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lrseluge/internal/crypt/hashx"
	"lrseluge/internal/crypt/puzzle"
	"lrseluge/internal/crypt/sign"
)

func TestAdvRoundTrip(t *testing.T) {
	a := &Adv{Src: 7, Version: 3, Units: 12, Total: 14}
	back, err := Unmarshal(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", a, back)
	}
}

func TestSNACKRoundTrip(t *testing.T) {
	bits := NewBitVector(48)
	bits.Set(0, true)
	bits.Set(13, true)
	bits.Set(47, true)
	s := &SNACK{Src: 2, Dest: 9, Version: 1, Unit: 5, Bits: bits}
	back, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got := back.(*SNACK)
	if got.Src != 2 || got.Dest != 9 || got.Version != 1 || got.Unit != 5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Bits.Len() != 48 || got.Bits.Count() != 3 || !got.Bits.Get(13) {
		t.Fatalf("bit vector mismatch: %v", got.Bits)
	}
}

func TestDataRoundTrip(t *testing.T) {
	d := &Data{
		Src: 4, Version: 2, Unit: 7, Index: 31,
		Payload: []byte("block bytes here"),
		Proof:   []hashx.Image{hashx.Sum([]byte("p0")), hashx.Sum([]byte("p1"))},
	}
	back, err := Unmarshal(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("roundtrip mismatch")
	}
}

func TestSigRoundTrip(t *testing.T) {
	s := &Sig{
		Src: 0, Version: 1, Pages: 11,
		Root:      hashx.Sum([]byte("root")),
		Signature: bytes.Repeat([]byte{0xab}, sign.SignatureSize),
		PuzzleSol: 0xdeadbeef,
	}
	s.PuzzleKey[0] = 0x42
	back, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestWireSizeMatchesMarshal(t *testing.T) {
	bits := NewBitVector(37)
	bits.SetAll()
	pkts := []Packet{
		&Adv{Src: 1, Version: 2, Units: 3, Total: 9},
		&SNACK{Src: 1, Dest: 2, Version: 3, Unit: 4, Bits: bits},
		&Data{Src: 1, Version: 1, Unit: 2, Index: 3, Payload: make([]byte, 72)},
		&Data{Src: 1, Version: 1, Unit: 1, Index: 0, Payload: make([]byte, 40), Proof: make([]hashx.Image, 4)},
		&Sig{Src: 1, Version: 1, Pages: 5, Signature: make([]byte, sign.SignatureSize)},
	}
	for _, p := range pkts {
		if got := len(p.Marshal()) + LinkOverhead; got != p.WireSize() {
			t.Errorf("%T: WireSize %d != marshal+overhead %d", p, p.WireSize(), got)
		}
	}
}

func TestLRSnackLargerThanSelugeSnack(t *testing.T) {
	// The paper charges LR-Seluge n-k extra SNACK bits; the wire format
	// must reflect that.
	k := NewBitVector(32)
	n := NewBitVector(48)
	sk := &SNACK{Bits: k}
	sn := &SNACK{Bits: n}
	if sn.WireSize() <= sk.WireSize() {
		t.Fatalf("n-bit SNACK (%d B) not larger than k-bit SNACK (%d B)", sn.WireSize(), sk.WireSize())
	}
	if sn.WireSize()-sk.WireSize() != 2 {
		t.Fatalf("48-bit vs 32-bit SNACK should differ by 2 bytes, got %d", sn.WireSize()-sk.WireSize())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{byte(TypeAdv)},
		{byte(TypeAdv), 0, 1, 0, 1},          // header only, no body
		{99, 0, 1, 0, 1, 0},                  // unknown type
		{byte(TypeData), 0, 1, 0, 1, 2, 3},   // truncated data
		{byte(TypeSig), 0, 1, 0, 1, 2, 3, 4}, // truncated sig
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
}

func TestDataPayloadLengthMismatchRejected(t *testing.T) {
	d := &Data{Src: 1, Version: 1, Unit: 2, Index: 3, Payload: []byte("abc")}
	raw := d.Marshal()
	raw = append(raw, 0xff) // trailing junk
	if _, err := Unmarshal(raw); err == nil {
		t.Fatal("trailing junk accepted")
	}
}

func TestAuthBodyBindsPosition(t *testing.T) {
	a := &Data{Unit: 1, Index: 2, Payload: []byte("x")}
	b := &Data{Unit: 1, Index: 3, Payload: []byte("x")}
	c := &Data{Unit: 2, Index: 2, Payload: []byte("x")}
	if bytes.Equal(a.AuthBody(), b.AuthBody()) || bytes.Equal(a.AuthBody(), c.AuthBody()) {
		t.Fatal("AuthBody does not bind unit/index")
	}
}

func TestSigMessagesBindFields(t *testing.T) {
	base := &Sig{Version: 1, Pages: 5, Root: hashx.Sum([]byte("r")), Signature: make([]byte, sign.SignatureSize)}
	v2 := *base
	v2.Version = 2
	p2 := *base
	p2.Pages = 6
	r2 := *base
	r2.Root = hashx.Sum([]byte("other"))
	for i, other := range []*Sig{&v2, &p2, &r2} {
		if bytes.Equal(base.SignedMessage(), other.SignedMessage()) {
			t.Errorf("case %d: SignedMessage does not bind the changed field", i)
		}
	}
	s2 := *base
	s2.Signature = bytes.Repeat([]byte{1}, sign.SignatureSize)
	if bytes.Equal(base.PuzzleMessage(), s2.PuzzleMessage()) {
		t.Fatal("PuzzleMessage does not bind the signature")
	}
}

// TestPuzzleMessageOneAlloc pins PuzzleMessage to SignedMessage followed by
// the signature, built in a single allocation: it runs on every weak check
// and every forged signature packet.
func TestPuzzleMessageOneAlloc(t *testing.T) {
	s := &Sig{Version: 3, Pages: 5, Root: hashx.Sum([]byte("r")), Signature: bytes.Repeat([]byte{0xa5}, sign.SignatureSize)}
	want := append(s.SignedMessage(), s.Signature...)
	if got := s.PuzzleMessage(); !bytes.Equal(got, want) {
		t.Fatalf("PuzzleMessage %x, want SignedMessage || Signature %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { s.PuzzleMessage() }); n != 1 {
		t.Fatalf("PuzzleMessage allocates %.1f times per call, want 1", n)
	}
}

func TestSigWireSizeConstant(t *testing.T) {
	s := &Sig{Signature: make([]byte, sign.SignatureSize)}
	want := LinkOverhead + 5 + 1 + hashx.Size + sign.SignatureSize + puzzle.KeySize + puzzle.SolutionSize
	if s.WireSize() != want {
		t.Fatalf("sig wire size %d, want %d", s.WireSize(), want)
	}
}

func TestRandomRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nbits := 1 + r.Intn(200)
		bits := NewBitVector(nbits)
		for i := 0; i < nbits; i++ {
			bits.Set(i, r.Intn(2) == 1)
		}
		s := &SNACK{
			Src:     NodeID(r.Intn(1 << 16)),
			Dest:    NodeID(r.Intn(1 << 16)),
			Version: uint16(r.Intn(1 << 16)),
			Unit:    Unit(r.Intn(256)),
			Bits:    bits,
		}
		back, err := Unmarshal(s.Marshal())
		if err != nil {
			return false
		}
		got := back.(*SNACK)
		return got.Src == s.Src && got.Dest == s.Dest && got.Bits.String() == s.Bits.String()
	}
	_ = rng
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
