// Package mat provides dense, row-major, float64 matrices with cheap
// rectangular views. It is the storage substrate for the fast
// matrix-multiplication framework: recursive algorithms operate on views of
// the original operands, so a view must alias its parent without copying.
//
// The package is deliberately minimal: matrices, views, element access, and
// the linear-combination kernels (axpy, n-ary combinations) that the
// addition-chain strategies of Benson & Ballard §3.2 are built from.
// Multiplication lives in package gemm and package core.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"unsafe"
)

// Dense is a dense row-major matrix, possibly a view into a larger matrix.
// The zero value is an empty (0×0) matrix ready to use.
type Dense struct {
	rows, cols int
	stride     int
	data       []float64
}

// New returns a freshly allocated, zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: make([]float64, r*c)}
}

// Scaled pairs a matrix with a scalar coefficient. It is the operand unit of
// the fused blocked engine (gemm.GemmFused): a linear combination Σ c_t·M_t is
// expressed as a []Scaled, and the packing/epilogue layers apply the
// coefficients in place instead of materializing the sum. It lives here (not
// in gemm) so arena allocators can hand out []Scaled scratch without an
// import cycle.
type Scaled struct {
	M     *Dense
	Coeff float64
	// Overwrite marks a fused-engine destination whose prior contents are
	// ignored: the first panel writes Coeff·P over the block instead of
	// accumulating, saving the zero-then-read-modify-write round trip the
	// executor would otherwise pay on every first-touch block.
	Overwrite bool
}

// FromRows builds a matrix from a slice of equal-length rows. It copies the
// data.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.Row(i), row)
	}
	return m
}

// FromSlice wraps data (row-major, length r*c) without copying.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: data}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Stride returns the row stride of the underlying storage.
func (m *Dense) Stride() int { return m.stride }

// Data exposes the underlying storage (including any view gap). Intended for
// kernels; most callers should use Row or At.
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.stride+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.stride+j] = v }

// Row returns row i as a slice of length Cols aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	off := i * m.stride
	return m.data[off : off+m.cols : off+m.cols]
}

// View returns an r×c view with upper-left corner at (i, j), sharing storage
// with m. Mutations through the view are visible in m and vice versa.
func (m *Dense) View(i, j, r, c int) *Dense {
	v := &Dense{}
	m.ViewInto(v, i, j, r, c)
	return v
}

// Reset reinitializes m in place as an r×c matrix (stride c) over data,
// which must have length r*c and is aliased, not copied. It is the
// allocation-free counterpart of FromSlice used by arena allocators
// (internal/workspace) to stamp matrices onto preallocated headers.
func (m *Dense) Reset(r, c int, data []float64) {
	if r < 0 || c < 0 || len(data) != r*c {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: Reset length %d != %d×%d", len(data), r, c))
	}
	m.rows, m.cols, m.stride, m.data = r, c, c, data
}

// ViewInto initializes dst as the r×c view of m with upper-left corner at
// (i, j) — View's aliasing semantics without allocating the header. dst's
// previous contents are overwritten.
func (m *Dense) ViewInto(dst *Dense, i, j, r, c int) {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.rows || j+c > m.cols {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: view [%d:%d, %d:%d] out of bounds of %d×%d", i, i+r, j, j+c, m.rows, m.cols))
	}
	if r == 0 || c == 0 {
		dst.rows, dst.cols, dst.stride, dst.data = r, c, m.stride, nil
		return
	}
	off := i*m.stride + j
	end := off + (r-1)*m.stride + c
	dst.rows, dst.cols, dst.stride, dst.data = r, c, m.stride, m.data[off:end]
}

// Overlaps reports whether x and y share the storage of any element. Two
// matrices with one stride — every pair of views of one parent — are
// compared exactly: y's first element is placed on x's row/column grid and
// the two rectangles are intersected, so disjoint blocks of one parent (the
// halves of a split, the quadrants of a recursion step) do not overlap. For
// different strides it compares address extents, which also reports
// interleaved-but-disjoint storage as overlapping. Empty matrices overlap
// nothing.
func Overlaps(x, y *Dense) bool {
	if len(x.data) == 0 || len(y.data) == 0 {
		return false
	}
	const size = unsafe.Sizeof(float64(0))
	px := uintptr(unsafe.Pointer(unsafe.SliceData(x.data)))
	py := uintptr(unsafe.Pointer(unsafe.SliceData(y.data)))
	var d int // y's first element, in elements from x's first
	if py >= px {
		d = int((py - px) / size)
	} else {
		d = -int((px - py) / size)
	}
	if d >= len(x.data) || -d >= len(y.data) {
		return false // disjoint address extents
	}
	s := x.stride
	if y.stride != s {
		return true
	}
	// On x's grid y's row i starts at row r+i, column c; past the stride it
	// wraps onto the start of row r+i+1.
	r, c := d/s, d%s
	if c < 0 {
		r, c = r-1, c+s
	}
	if meets(r, r+y.rows, x.rows) && meets(c, min(c+y.cols, s), x.cols) {
		return true
	}
	return c+y.cols > s && meets(r+1, r+1+y.rows, x.rows) && meets(0, c+y.cols-s, x.cols)
}

// meets reports whether [lo, hi) intersects [0, n).
func meets(lo, hi, n int) bool { return lo < n && hi > 0 }

// Clone returns a compact (stride == cols) deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameDims(src, "CopyFrom")
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// FillRandom fills m with uniform random values in [-1, 1).
func (m *Dense) FillRandom(rng *rand.Rand) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MaxAbs returns max |m_ij|, 0 for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	var v float64
	for i := 0; i < m.rows; i++ {
		for _, x := range m.Row(i) {
			if a := math.Abs(x); a > v {
				v = a
			}
		}
	}
	return v
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	var s float64
	for i := 0; i < m.rows; i++ {
		for _, x := range m.Row(i) {
			s += x * x
		}
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max |a_ij − b_ij|. Dimensions must match.
func MaxAbsDiff(a, b *Dense) float64 {
	a.mustSameDims(b, "MaxAbsDiff")
	var v float64
	for i := 0; i < a.rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > v {
				v = d
			}
		}
	}
	return v
}

// EqualApprox reports whether a and b have the same shape and agree
// elementwise within tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	if a.rows == 0 || a.cols == 0 {
		return true
	}
	return MaxAbsDiff(a, b) <= tol
}

// Transpose writes srcᵀ into dst. dst must be Cols(src)×Rows(src).
func Transpose(dst, src *Dense) {
	if dst.rows != src.cols || dst.cols != src.rows {
		panic(fmt.Sprintf("mat: Transpose dims %d×%d vs %d×%d", dst.rows, dst.cols, src.rows, src.cols))
	}
	for i := 0; i < src.rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Set(j, i, v)
		}
	}
}

// Scale writes alpha*src into dst (dst = src allowed).
func Scale(dst *Dense, alpha float64, src *Dense) {
	dst.mustSameDims(src, "Scale")
	for i := 0; i < dst.rows; i++ {
		rd, rs := dst.Row(i), src.Row(i)
		for j := range rd {
			rd[j] = alpha * rs[j]
		}
	}
}

// Axpy computes y += alpha*x, the daxpy kernel used by the pairwise addition
// strategy (§3.2, method 1).
func Axpy(y *Dense, alpha float64, x *Dense) {
	y.mustSameDims(x, "Axpy")
	for i := 0; i < y.rows; i++ {
		ry, rx := y.Row(i), x.Row(i)
		if alpha == 1 {
			for j := range ry {
				ry[j] += rx[j]
			}
		} else if alpha == -1 {
			for j := range ry {
				ry[j] -= rx[j]
			}
		} else {
			for j := range ry {
				ry[j] += alpha * rx[j]
			}
		}
	}
}

// Combine writes dst = Σ coeffs[t]*srcs[t] in a single pass over dst — one
// write per output element. This is the write-once addition strategy (§3.2,
// method 2). All srcs must have dst's dimensions and coeffs must be nonempty
// and the same length as srcs.
func Combine(dst *Dense, coeffs []float64, srcs []*Dense) {
	if len(coeffs) == 0 || len(coeffs) != len(srcs) {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: Combine with %d coeffs, %d srcs", len(coeffs), len(srcs)))
	}
	for _, s := range srcs {
		dst.mustSameDims(s, "Combine")
	}
	switch len(srcs) {
	case 1:
		Scale(dst, coeffs[0], srcs[0])
	case 2:
		combine2(dst, coeffs[0], srcs[0], coeffs[1], srcs[1])
	default:
		combine2(dst, coeffs[0], srcs[0], coeffs[1], srcs[1])
		for t := 2; t < len(srcs); t++ {
			Axpy(dst, coeffs[t], srcs[t])
		}
	}
}

func combine2(dst *Dense, c0 float64, s0 *Dense, c1 float64, s1 *Dense) {
	for i := 0; i < dst.rows; i++ {
		rd, r0, r1 := dst.Row(i), s0.Row(i), s1.Row(i)
		switch {
		case c0 == 1 && c1 == 1:
			for j := range rd {
				rd[j] = r0[j] + r1[j]
			}
		case c0 == 1 && c1 == -1:
			for j := range rd {
				rd[j] = r0[j] - r1[j]
			}
		default:
			for j := range rd {
				rd[j] = c0*r0[j] + c1*r1[j]
			}
		}
	}
}

// AccumulateScaled computes dst += alpha*src; it is the streaming-strategy
// update kernel (§3.2, method 3) applied from one source block into one of
// its destination temporaries.
func AccumulateScaled(dst *Dense, alpha float64, src *Dense) { Axpy(dst, alpha, src) }

// String renders the matrix for debugging (small matrices only).
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func (m *Dense) mustSameDims(o *Dense, op string) {
	if m.rows != o.rows || m.cols != o.cols {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, m.rows, m.cols, o.rows, o.cols))
	}
}
