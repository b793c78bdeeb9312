package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// TestDoMatchesNaive is the differential contract of Executor.Do: every op,
// with Alpha ∈ {1, −0.5} and Beta ∈ {0, 1, 0.5}, on the explicit and the
// fused engine, under each scheduler family, agrees with gemm.Naive on
// shapes that peel at both recursion steps, and ATA/Syrk results are exactly
// symmetric. Alpha −0.5 with Beta 0 is the overwrite path that scales at the
// leaves instead of sweeping C afterwards.
func TestDoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{{67, 45, 53}, {130, 97, 129}} // A is m×k, B is k×n
	for _, fused := range []bool{false, true} {
		for _, mode := range []Parallel{Sequential, DFS, Hybrid} {
			// MinDim 16 makes the symmetric recursion split down to
			// sub-32 diagonal blocks, so its off-diagonal fast multiplies run.
			e := mustExec(t, "strassen", Options{
				Resources: Resources{Workers: 3}, Steps: 2, MinDim: 16, Parallel: mode, Fused: fused,
			})
			for _, o := range []op.Op{op.Multiply, op.MultiplyAdd, op.ATA, op.Syrk} {
				for _, s := range shapes {
					m, k, n := s[0], s[1], s[2]
					A := randMat(m, k, rng)
					var B *mat.Dense
					if !o.UnaryOperand() {
						B = randMat(k, n, rng)
					}
					prod := naiveOp(o, A, B)
					C0 := randMat(prod.Rows(), prod.Cols(), rng)
					if o.Symmetric() {
						mirrorLower(C0)
					}
					for _, alpha := range []float64{1, -0.5} {
						for _, beta := range []float64{0, 1, 0.5} {
							name := fmt.Sprintf("fused=%v/%v/%v/%dx%dx%d/alpha=%g/beta=%g", fused, mode, o, m, k, n, alpha, beta)
							C := C0.Clone()
							if err := e.Do(op.Request{Op: o, C: C, A: A, B: B, Alpha: alpha, Beta: beta}); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							effBeta := beta
							if o == op.MultiplyAdd {
								effBeta = 1 // MultiplyAdd forces Beta = 1
							}
							want := mat.New(C.Rows(), C.Cols())
							mat.Scale(want, effBeta, C0)
							mat.Axpy(want, alpha, prod)
							if d, tol := mat.MaxAbsDiff(C, want), 1e-10*float64(m+k+1); d > tol {
								t.Fatalf("%s: max diff %g > %g", name, d, tol)
							}
							if o.Symmetric() {
								checkExactSymmetry(t, C)
							}
						}
					}
				}
			}
		}
	}
}

// naiveOp computes op(A, B) with the gemm.Naive oracle.
func naiveOp(o op.Op, A, B *mat.Dense) *mat.Dense {
	L, R := A, B
	if o.UnaryOperand() {
		At := mat.New(A.Cols(), A.Rows())
		mat.Transpose(At, A)
		L, R = At, A // ATA: Aᵗ·A
		if o == op.Syrk {
			L, R = A, At // Syrk: A·Aᵗ
		}
	}
	C := mat.New(L.Rows(), R.Cols())
	gemm.Naive(C, L, R)
	return C
}
