// Package algo defines the central abstraction of the framework: a fast
// matrix-multiplication algorithm represented as a rank-R decomposition
// JU,V,WK of the ⟨M,K,N⟩ matrix-multiplication tensor (Benson & Ballard §2).
// It provides exactness verification against the ground-truth tensor, the
// arithmetic-cost model, the dimension-permutation transformations of
// Propositions 2.1–2.2, the equivalence transformations of Proposition 2.3,
// and the two constructions used to assemble larger base cases from smaller
// ones: block splitting and tensor composition.
package algo

import (
	"fmt"
	"math"

	"fastmm/internal/mat"
	"fastmm/internal/tensor"
)

// BaseCase identifies the block multiplication ⟨M,K,N⟩: an M×K matrix times
// a K×N matrix.
type BaseCase struct {
	M, K, N int
}

func (b BaseCase) String() string { return fmt.Sprintf("<%d,%d,%d>", b.M, b.K, b.N) }

// Algorithm is a bilinear matrix-multiplication algorithm JU,V,WK for a base
// case ⟨M,K,N⟩. U is MK×R, V is KN×R, W is MN×R; R is the rank (= number of
// active multiplications = recursive calls per step).
//
// Column r of U gives the coefficients of the linear combination
// S_r = Σ u_{i,r} · vec(A)_i; likewise V for T_r, and row k of W gives the
// combination of the products M_r forming output element vec(C)_k.
type Algorithm struct {
	Name string
	Base BaseCase
	U    *mat.Dense
	V    *mat.Dense
	W    *mat.Dense
	// Numeric marks algorithms whose coefficients come straight from the
	// numerical search (§2.3.2) without full discretization: they are
	// exact only to least-squares precision (~1e-10), so verification and
	// downstream correctness checks use a correspondingly relaxed
	// tolerance.
	Numeric bool
}

// Rank returns R, the number of active multiplications per recursive step.
func (a *Algorithm) Rank() int { return a.U.Cols() }

// ClassicalMults returns M·K·N, the multiplication count of the classical
// algorithm for this base case.
func (a *Algorithm) ClassicalMults() int { return a.Base.M * a.Base.K * a.Base.N }

// SpeedupPerStep returns the multiplication speedup per recursive step,
// MKN/R, the quantity reported in Table 2 (e.g. 8/7 ≈ 1.14 for Strassen).
func (a *Algorithm) SpeedupPerStep() float64 {
	return float64(a.ClassicalMults()) / float64(a.Rank())
}

// Exponent returns ω₀ such that the algorithm applied recursively to square
// multiplication costs Θ(N^ω₀): ω₀ = 3·log(R)/log(MKN). For Strassen this is
// log₂7 ≈ 2.81.
func (a *Algorithm) Exponent() float64 {
	return 3 * math.Log(float64(a.Rank())) / math.Log(float64(a.ClassicalMults()))
}

// NNZ returns the nonzero counts of U, V, W; their sum drives the
// communication cost of the addition phase (§3.2, §6).
func (a *Algorithm) NNZ() (u, v, w int) {
	return nnz(a.U), nnz(a.V), nnz(a.W)
}

func nnz(m *mat.Dense) int {
	n := 0
	for i := 0; i < m.Rows(); i++ {
		for _, x := range m.Row(i) {
			if x != 0 {
				n++
			}
		}
	}
	return n
}

// Additions returns the number of scalar (block) additions per recursive
// step implied by the factor sparsity with the write-once strategy and no
// CSE: a column with z nonzeros costs z−1 additions when forming S_r/T_r,
// and a W row with z nonzeros costs z−1 additions when forming an output
// block.
func (a *Algorithm) Additions() int {
	adds := 0
	for c := 0; c < a.U.Cols(); c++ {
		if z := colNNZ(a.U, c); z > 1 {
			adds += z - 1
		}
		if z := colNNZ(a.V, c); z > 1 {
			adds += z - 1
		}
	}
	for i := 0; i < a.W.Rows(); i++ {
		z := 0
		for _, x := range a.W.Row(i) {
			if x != 0 {
				z++
			}
		}
		if z > 1 {
			adds += z - 1
		}
	}
	return adds
}

func colNNZ(m *mat.Dense, c int) int {
	n := 0
	for i := 0; i < m.Rows(); i++ {
		if m.At(i, c) != 0 {
			n++
		}
	}
	return n
}

// ApproxTol is the reconstruction tolerance granted during verification:
// exact algorithms must reconstruct to fp roundoff, numeric (search-output)
// ones to least-squares precision.
func (a *Algorithm) ApproxTol() float64 {
	if a.Numeric {
		return 1e-8
	}
	return 1e-9
}

// Verify checks that JU,V,WK reconstructs the ⟨M,K,N⟩ tensor to within
// ApproxTol: floating-point roundoff of the (small integer or rational)
// coefficients, or least-squares precision for numeric ones.
func (a *Algorithm) Verify() error {
	if err := a.checkShape(); err != nil {
		return err
	}
	want := tensor.MatMul(a.Base.M, a.Base.K, a.Base.N)
	got := tensor.FromFactors(a.U, a.V, a.W)
	d := tensor.MaxAbsDiff(got, want)
	if tol := a.ApproxTol(); d > tol {
		return fmt.Errorf("algo %q %v: reconstruction error %.3g exceeds %.3g", a.Name, a.Base, d, tol)
	}
	return nil
}

func (a *Algorithm) checkShape() error {
	b := a.Base
	if b.M < 1 || b.K < 1 || b.N < 1 {
		return fmt.Errorf("algo %q: invalid base case %v", a.Name, b)
	}
	r := a.U.Cols()
	if a.V.Cols() != r || a.W.Cols() != r {
		return fmt.Errorf("algo %q: rank mismatch U:%d V:%d W:%d", a.Name, a.U.Cols(), a.V.Cols(), a.W.Cols())
	}
	if a.U.Rows() != b.M*b.K {
		return fmt.Errorf("algo %q: U has %d rows, want %d", a.Name, a.U.Rows(), b.M*b.K)
	}
	if a.V.Rows() != b.K*b.N {
		return fmt.Errorf("algo %q: V has %d rows, want %d", a.Name, a.V.Rows(), b.K*b.N)
	}
	if a.W.Rows() != b.M*b.N {
		return fmt.Errorf("algo %q: W has %d rows, want %d", a.Name, a.W.Rows(), b.M*b.N)
	}
	return nil
}

// Clone returns a deep copy of a.
func (a *Algorithm) Clone() *Algorithm {
	return &Algorithm{Name: a.Name, Base: a.Base, U: a.U.Clone(), V: a.V.Clone(), W: a.W.Clone(), Numeric: a.Numeric}
}

// Classical returns the trivial rank-MKN decomposition: one multiplication
// per scalar product a_mk·b_kn. Recursing on it reproduces the classical
// blocked algorithm.
func Classical(m, k, n int) *Algorithm {
	r := m * k * n
	U := mat.New(m*k, r)
	V := mat.New(k*n, r)
	W := mat.New(m*n, r)
	col := 0
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				U.Set(i*k+p, col, 1)
				V.Set(p*n+j, col, 1)
				W.Set(i*n+j, col, 1)
				col++
			}
		}
	}
	return &Algorithm{Name: fmt.Sprintf("classical%d%d%d", m, k, n), Base: BaseCase{m, k, n}, U: U, V: V, W: W}
}

// vecPerm returns the IJ×IJ permutation matrix P_{I×J} with
// P·vec(A) = vec(Aᵀ) for a row-major I×J matrix A (§2.3.1).
func vecPerm(i, j int) *mat.Dense {
	p := mat.New(i*j, i*j)
	for r := 0; r < i; r++ {
		for c := 0; c < j; c++ {
			p.Set(c*i+r, r*j+c, 1)
		}
	}
	return p
}

func mulPerm(p, m *mat.Dense) *mat.Dense {
	// p is a permutation matrix; apply it as a row permutation of m.
	out := mat.New(m.Rows(), m.Cols())
	for r := 0; r < p.Rows(); r++ {
		for c := 0; c < p.Cols(); c++ {
			if p.At(r, c) != 0 {
				copy(out.Row(r), m.Row(c))
			}
		}
	}
	return out
}

// Transpose applies Proposition 2.1: from JU,V,WK for ⟨M,K,N⟩ build
// JP_{K×N}V, P_{M×K}U, P_{M×N}WK for ⟨N,K,M⟩. It corresponds to the identity
// Cᵀ = Bᵀ·Aᵀ.
func Transpose(a *Algorithm) *Algorithm {
	b := a.Base
	return &Algorithm{
		Name:    a.Name + "^T",
		Base:    BaseCase{b.N, b.K, b.M},
		U:       mulPerm(vecPerm(b.K, b.N), a.V),
		V:       mulPerm(vecPerm(b.M, b.K), a.U),
		W:       mulPerm(vecPerm(b.M, b.N), a.W),
		Numeric: a.Numeric,
	}
}

// Rotate applies Proposition 2.2: from JU,V,WK for ⟨M,K,N⟩ build
// JP_{M×N}W, U, P_{K×N}VK for ⟨N,M,K⟩. Together with Transpose it generates
// all six permutations of the base-case dimensions.
func Rotate(a *Algorithm) *Algorithm {
	b := a.Base
	return &Algorithm{
		Name:    a.Name + "^R",
		Base:    BaseCase{b.N, b.M, b.K},
		U:       mulPerm(vecPerm(b.M, b.N), a.W),
		V:       a.U.Clone(),
		W:       mulPerm(vecPerm(b.K, b.N), a.V),
		Numeric: a.Numeric,
	}
}

// Permute returns an algorithm for the base case with dimensions
// (target.M, target.K, target.N), which must be a permutation of a's base
// dimensions, derived via Propositions 2.1/2.2. The result is renamed to
// name.
func Permute(a *Algorithm, target BaseCase, name string) (*Algorithm, error) {
	// Breadth-first over the (at most 6) reachable permutations.
	seen := map[BaseCase]*Algorithm{a.Base: a}
	queue := []*Algorithm{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.Base == target {
			out := cur.Clone()
			out.Name = name
			return out, nil
		}
		for _, next := range []*Algorithm{Transpose(cur), Rotate(cur)} {
			if _, ok := seen[next.Base]; !ok {
				seen[next.Base] = next
				queue = append(queue, next)
			}
		}
	}
	return nil, fmt.Errorf("algo: %v is not a permutation of %v", target, a.Base)
}

// ScaleColumns applies the diagonal equivalence transformation of
// Proposition 2.3: JUDx, VDy, WDzK with Dx·Dy·Dz = I. dx and dy give the
// per-column scalings; dz is derived as 1/(dx·dy).
func ScaleColumns(a *Algorithm, dx, dy []float64) (*Algorithm, error) {
	r := a.Rank()
	if len(dx) != r || len(dy) != r {
		return nil, fmt.Errorf("algo: ScaleColumns needs %d scalings", r)
	}
	out := a.Clone()
	for c := 0; c < r; c++ {
		if dx[c] == 0 || dy[c] == 0 {
			return nil, fmt.Errorf("algo: zero scaling for column %d", c)
		}
		dz := 1 / (dx[c] * dy[c])
		for i := 0; i < out.U.Rows(); i++ {
			out.U.Set(i, c, out.U.At(i, c)*dx[c])
		}
		for i := 0; i < out.V.Rows(); i++ {
			out.V.Set(i, c, out.V.At(i, c)*dy[c])
		}
		for i := 0; i < out.W.Rows(); i++ {
			out.W.Set(i, c, out.W.At(i, c)*dz)
		}
	}
	return out, nil
}

// PermuteColumns applies the column-permutation equivalence of Proposition
// 2.3: JUP, VP, WPK. perm[i] gives the source column for destination i.
func PermuteColumns(a *Algorithm, perm []int) (*Algorithm, error) {
	r := a.Rank()
	if len(perm) != r {
		return nil, fmt.Errorf("algo: permutation length %d != rank %d", len(perm), r)
	}
	seen := make([]bool, r)
	for _, p := range perm {
		if p < 0 || p >= r || seen[p] {
			return nil, fmt.Errorf("algo: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	permCols := func(m *mat.Dense) *mat.Dense {
		out := mat.New(m.Rows(), r)
		for i := 0; i < m.Rows(); i++ {
			for c := 0; c < r; c++ {
				out.Set(i, c, m.At(i, perm[c]))
			}
		}
		return out
	}
	out := a.Clone()
	out.U, out.V, out.W = permCols(a.U), permCols(a.V), permCols(a.W)
	return out, nil
}
