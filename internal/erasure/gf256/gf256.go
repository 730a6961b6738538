// Package gf256 implements arithmetic over the finite field GF(2^8) together
// with the small dense-matrix routines needed by Reed-Solomon erasure coding.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage-oriented Reed-Solomon implementations.
package gf256

import "fmt"

// polynomial is the primitive reduction polynomial for the field.
const polynomial = 0x11d

// tables holds the exponential and logarithm tables for the field generator
// (alpha = 2, which is primitive for 0x11d).
type fieldTables struct {
	exp [512]byte // doubled so log sums index it without a modular reduction
	log [256]byte
}

var tables = buildTables()

// mulTable is the full 256x256 product table (64 KiB), built once at package
// init from the exp/log tables: mulTable[a][b] = a*b. One row is the whole
// multiply-by-constant map MulSlice needs, so its inner loop is a single
// lookup per byte with no zero test.
var mulTable = buildMulTable()

func buildTables() *fieldTables {
	var t fieldTables
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	return &t
}

func buildMulTable() *[256][256]byte {
	var t [256][256]byte
	for a := 1; a < 256; a++ {
		la := int(tables.log[a])
		for b := 1; b < 256; b++ {
			t[a][b] = tables.exp[la+int(tables.log[b])]
		}
	}
	return &t
}

// Add returns a + b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a / b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(tables.log[a]) - int(tables.log[b])
	if d < 0 {
		d += 255
	}
	return tables.exp[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return tables.exp[255-int(tables.log[a])]
}

// Exp returns alpha^e where alpha = 2 is the field generator.
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return tables.exp[e]
}

// Log returns the discrete logarithm of a to base alpha. It panics if a is
// zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(tables.log[a])
}

// MulSlice computes dst[i] ^= c * src[i] for every index, the inner loop of
// matrix-vector products over block data. dst and src must be equal length.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	mt := &mulTable[c]
	// Eight bytes per iteration: the fixed-size views leave no per-byte
	// bounds check, and the unrolled body spends its time on the table
	// lookups rather than the loop counter (about 1.5x the one-byte loop on
	// 72-byte payloads).
	for len(src) >= 8 {
		s, d := src[:8:8], dst[:8:8]
		d[0] ^= mt[s[0]]
		d[1] ^= mt[s[1]]
		d[2] ^= mt[s[2]]
		d[3] ^= mt[s[3]]
		d[4] ^= mt[s[4]]
		d[5] ^= mt[s[5]]
		d[6] ^= mt[s[6]]
		d[7] ^= mt[s[7]]
		src, dst = src[8:], dst[8:]
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] ^= mt[v]
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix shape %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]byte, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Mul returns the matrix product m * other.
func (m Matrix) Mul(other Matrix) Matrix {
	if m.Cols != other.Rows {
		panic("gf256: matrix dimension mismatch")
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			MulSlice(a, other.Row(k), out.Row(r))
		}
	}
	return out
}

// SelectRows returns a copy of the given rows, in order.
func (m Matrix) SelectRows(rows []int) Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination. It returns an error if the matrix is singular.
func (m Matrix) Invert() (Matrix, error) {
	if m.Rows != m.Cols {
		return Matrix{}, fmt.Errorf("gf256: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Clone()
	out := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return Matrix{}, fmt.Errorf("gf256: singular matrix (column %d)", col)
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(out, pivot, col)
		}
		// Normalize the pivot row.
		if v := work.At(col, col); v != 1 {
			inv := Inv(v)
			scaleRow(work.Row(col), inv)
			scaleRow(out.Row(col), inv)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(work.Row(r), work.Row(col), f)
			addScaledRow(out.Row(r), out.Row(col), f)
		}
	}
	return out, nil
}

func swapRows(m Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(row []byte, c byte) {
	for i := range row {
		row[i] = Mul(row[i], c)
	}
}

// addScaledRow computes dst ^= c * src.
func addScaledRow(dst, src []byte, c byte) {
	MulSlice(c, src, dst)
}

// Cauchy returns an r x c Cauchy matrix with element (i, j) equal to
// 1/(x_i + y_j) where x_i = c + i and y_j = j. Every square submatrix of a
// Cauchy matrix is invertible, which is the property Reed-Solomon decoding
// relies on. It panics if r+c > 256 (the x and y values must be distinct
// field elements).
func Cauchy(r, c int) Matrix {
	if r+c > 256 {
		panic("gf256: Cauchy matrix too large for GF(2^8)")
	}
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		x := byte(c + i)
		for j := 0; j < c; j++ {
			m.Set(i, j, Inv(Add(x, byte(j))))
		}
	}
	return m
}

// Vandermonde returns an r x c Vandermonde matrix with element (i, j) equal
// to alpha^(i*j); used in tests as an alternative construction.
func Vandermonde(r, c int) Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, Exp(i*j))
		}
	}
	return m
}
