package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	t.Run("MulCommutative", func(t *testing.T) {
		if err := quick.Check(func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulAssociative", func(t *testing.T) {
		if err := quick.Check(func(a, b, c byte) bool {
			return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("Distributive", func(t *testing.T) {
		if err := quick.Check(func(a, b, c byte) bool {
			return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulIdentity", func(t *testing.T) {
		if err := quick.Check(func(a byte) bool { return Mul(a, 1) == a }, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("AddSelfInverse", func(t *testing.T) {
		if err := quick.Check(func(a byte) bool { return Add(a, a) == 0 }, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulInverse", func(t *testing.T) {
		for a := 1; a < 256; a++ {
			if Mul(byte(a), Inv(byte(a))) != 1 {
				t.Fatalf("a * a^-1 != 1 for a=%d", a)
			}
		}
	})
	t.Run("DivMulRoundTrip", func(t *testing.T) {
		if err := quick.Check(func(a, b byte) bool {
			if b == 0 {
				return true
			}
			return Mul(Div(a, b), b) == a
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestExpLog(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(0) != 1 {
		t.Fatal("alpha^0 != 1")
	}
	if Exp(255) != Exp(0) {
		t.Fatal("exponent not periodic mod 255")
	}
	if Exp(-1) != Exp(254) {
		t.Fatal("negative exponent mishandled")
	}
}

func TestZeroDivisionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Div": func() { Div(5, 0) },
		"Inv": func() { Inv(0) },
		"Log": func() { Log(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s by zero should panic", name)
				}
			}()
			fn()
		}()
	}
}

// logExpMul is the exp/log definition of the field product, independent of
// the product table.
func logExpMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return tables.exp[int(tables.log[a])+int(tables.log[b])]
}

// polyMul is the schoolbook product: carry-less multiplication reduced
// modulo the field polynomial.
func polyMul(a, b byte) byte {
	var p byte
	x := int(a)
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= byte(x)
		}
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	return p
}

func TestMulTableMatchesDefinition(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got := mulTable[a][b]
			if want := logExpMul(byte(a), byte(b)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, exp/log gives %d", a, b, got, want)
			}
			if want := polyMul(byte(a), byte(b)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, polynomial product gives %d", a, b, got, want)
			}
			if Mul(byte(a), byte(b)) != got {
				t.Fatalf("Mul(%d, %d) disagrees with the table", a, b)
			}
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 80)
	dst := make([]byte, 80)
	want := make([]byte, 80)
	for c := 0; c < 256; c++ {
		for n := 0; n <= 80; n++ {
			rng.Read(src[:n])
			rng.Read(dst[:n])
			for i := range want[:n] {
				want[i] = dst[i] ^ logExpMul(byte(c), src[i])
			}
			MulSlice(byte(c), src[:n], dst[:n])
			if !bytes.Equal(dst[:n], want[:n]) {
				t.Fatalf("MulSlice mismatch for c=%d len=%d", c, n)
			}
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulSlice(3, make([]byte, 4), make([]byte, 5))
}

func TestMatrixIdentityInvert(t *testing.T) {
	id := Identity(8)
	inv, err := id.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.Data, id.Data) {
		t.Fatal("identity inverse is not identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		// Cauchy matrices are always invertible.
		m := Cauchy(n, n)
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("Cauchy %dx%d reported singular: %v", n, n, err)
		}
		prod := m.Mul(inv)
		if !bytes.Equal(prod.Data, Identity(n).Data) {
			t.Fatalf("M * M^-1 != I for n=%d", n)
		}
	}
}

func TestSingularMatrixDetected(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2) // duplicate row
	if _, err := m.Invert(); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

func TestCauchySubmatricesInvertible(t *testing.T) {
	// The MDS property of the RS construction: every square submatrix of a
	// Cauchy matrix is invertible.
	m := Cauchy(6, 6)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		size := 1 + rng.Intn(6)
		rows := rng.Perm(6)[:size]
		cols := rng.Perm(6)[:size]
		sub := NewMatrix(size, size)
		for i, r := range rows {
			for j, c := range cols {
				sub.Set(i, j, m.At(r, c))
			}
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("Cauchy submatrix rows=%v cols=%v singular: %v", rows, cols, err)
		}
	}
}

func TestMatrixMulDimensions(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 4)
	prod := a.Mul(b)
	if prod.Rows != 2 || prod.Cols != 4 {
		t.Fatalf("product shape %dx%d, want 2x4", prod.Rows, prod.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	b.Mul(a) // 3x4 * 2x3 is invalid
}

func TestSelectRows(t *testing.T) {
	m := Cauchy(4, 3)
	sel := m.SelectRows([]int{2, 0})
	if sel.Rows != 2 || !bytes.Equal(sel.Row(0), m.Row(2)) || !bytes.Equal(sel.Row(1), m.Row(0)) {
		t.Fatal("SelectRows wrong")
	}
}

func TestVandermonde(t *testing.T) {
	v := Vandermonde(3, 4)
	for j := 0; j < 4; j++ {
		if v.At(0, j) != 1 {
			t.Fatal("first Vandermonde row should be all ones")
		}
	}
	for i := 0; i < 3; i++ {
		if v.At(i, 0) != 1 {
			t.Fatal("first Vandermonde column should be all ones")
		}
	}
	if v.At(2, 2) != Exp(4) {
		t.Fatal("Vandermonde element wrong")
	}
}

func TestCauchyTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized Cauchy matrix")
		}
	}()
	Cauchy(200, 100)
}
