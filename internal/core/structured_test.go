package core

import (
	"math/rand"
	"testing"

	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// refATA computes the classical Aᵗ·A reference through the gemm oracle.
func refATA(A *mat.Dense) *mat.Dense {
	T := mat.New(A.Cols(), A.Rows())
	mat.Transpose(T, A)
	want := mat.New(A.Cols(), A.Cols())
	gemm.Mul(want, T, A)
	return want
}

// refSyrk computes the classical A·Aᵗ reference through the gemm oracle.
func refSyrk(A *mat.Dense) *mat.Dense {
	T := mat.New(A.Cols(), A.Rows())
	mat.Transpose(T, A)
	want := mat.New(A.Rows(), A.Rows())
	gemm.Mul(want, A, T)
	return want
}

// checkExactSymmetry asserts the structured-operation contract: the two
// triangles agree bit-for-bit (==, not within epsilon), because the lower one
// is computed once and mirrored, never recomputed.
func checkExactSymmetry(t *testing.T, C *mat.Dense) {
	t.Helper()
	for i := 0; i < C.Rows(); i++ {
		for j := 0; j < i; j++ {
			if C.At(i, j) != C.At(j, i) {
				t.Fatalf("exact symmetry violated at (%d,%d): %g != %g",
					i, j, C.At(i, j), C.At(j, i))
			}
		}
	}
}

// TestStructuredMatchesGemm is the structured-operation property sweep: every
// exact catalog algorithm, under every scheduler, on randomized operand
// shapes — square, tall, wide, and peeling-triggering odd sizes — must agree
// with the classical Gram/SYRK reference AND be exactly symmetric, while
// reusing one executor across all shapes.
func TestStructuredMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	modes := []Parallel{Sequential, DFS, BFS, Hybrid}
	for _, name := range catalog.Names() {
		a, err := catalog.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			b := a.Base
			for _, mode := range modes {
				e, err := New(a, Options{Resources: Resources{Workers: 3}, Steps: 1, Parallel: mode})
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 3; trial++ {
					// Random multiples of the base dims plus a remainder from
					// trial 1 on, so dynamic peeling fires inside the
					// off-diagonal fast multiplies.
					m := b.M * (1 + rng.Intn(3))
					n := b.N * (1 + rng.Intn(3))
					if trial > 0 {
						m += rng.Intn(b.M)
						n += rng.Intn(b.N)
					}
					A := randMat(m, n, rng)
					tol := 1e-10 * float64(m+n+1)
					if a.Numeric {
						tol = 1e-6 * float64(m+n+1)
					}

					gotATA := mat.New(n, n)
					if err := e.Do(op.Request{Op: op.ATA, C: gotATA, A: A}); err != nil {
						t.Fatal(err)
					}
					if d := mat.MaxAbsDiff(gotATA, refATA(A)); d > tol {
						t.Fatalf("%s %v ATA %dx%d trial %d: max diff %g > %g",
							name, mode, m, n, trial, d, tol)
					}
					checkExactSymmetry(t, gotATA)

					gotSyrk := mat.New(m, m)
					if err := e.Do(op.Request{Op: op.Syrk, C: gotSyrk, A: A}); err != nil {
						t.Fatal(err)
					}
					if d := mat.MaxAbsDiff(gotSyrk, refSyrk(A)); d > tol {
						t.Fatalf("%s %v SYRK %dx%d trial %d: max diff %g > %g",
							name, mode, m, n, trial, d, tol)
					}
					checkExactSymmetry(t, gotSyrk)
				}
			}
		})
	}
}

// TestStructuredPeelingEdgeShapes drives the all-borders peeling shapes and
// strongly rectangular panels (the normal-equations case: tall-skinny A)
// through both structured operations at two recursion steps.
func TestStructuredPeelingEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][2]int{{13, 9}, {65, 67}, {129, 127}, {200, 48}, {48, 200}, {1, 7}, {7, 1}}
	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 4}, Steps: 2, Parallel: mode})
		for _, s := range shapes {
			m, n := s[0], s[1]
			A := randMat(m, n, rng)
			tol := 1e-10 * float64(m+n+1)

			gotATA := mat.New(n, n)
			if err := e.Do(op.Request{Op: op.ATA, C: gotATA, A: A}); err != nil {
				t.Fatal(err)
			}
			if d := mat.MaxAbsDiff(gotATA, refATA(A)); d > tol {
				t.Fatalf("%v ATA %v: max diff %g", mode, s, d)
			}
			checkExactSymmetry(t, gotATA)

			gotSyrk := mat.New(m, m)
			if err := e.Do(op.Request{Op: op.Syrk, C: gotSyrk, A: A}); err != nil {
				t.Fatal(err)
			}
			if d := mat.MaxAbsDiff(gotSyrk, refSyrk(A)); d > tol {
				t.Fatalf("%v SYRK %v: max diff %g", mode, s, d)
			}
			checkExactSymmetry(t, gotSyrk)
		}
	}
}

// TestStructuredDimensionErrors pins the shape contract of the structured
// entry points.
func TestStructuredDimensionErrors(t *testing.T) {
	e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 1}, Steps: 1, Parallel: Sequential})
	A := mat.New(8, 6)
	if err := e.Do(op.Request{Op: op.ATA, C: mat.New(8, 8), A: A}); err == nil {
		t.Fatal("ATA with C 8×8 for 8×6 operand must fail (want 6×6)")
	}
	if err := e.Do(op.Request{Op: op.Syrk, C: mat.New(6, 6), A: A}); err == nil {
		t.Fatal("SYRK with C 6×6 for 8×6 operand must fail (want 8×8)")
	}
}

// TestMultiplyAddMatchesReference checks C += alpha·A·B against the explicit
// two-step reference under every scheduler.
func TestMultiplyAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 3}, Steps: 1, Parallel: mode})
		m, k, n := 67, 45, 53
		A, B := randMat(m, k, rng), randMat(k, n, rng)
		got := randMat(m, n, rng)
		want := got.Clone()
		if err := e.Do(op.Request{Op: op.MultiplyAdd, C: got, A: A, B: B, Alpha: 0.5}); err != nil {
			t.Fatal(err)
		}
		prod := mat.New(m, n)
		gemm.Mul(prod, A, B)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, want.At(i, j)+0.5*prod.At(i, j))
			}
		}
		if d := mat.MaxAbsDiff(got, want); d > 1e-10*float64(k+1) {
			t.Fatalf("%v MultiplyAdd: max diff %g", mode, d)
		}
	}
}

// TestStructuredReuseAllocsDFS enforces the steady-state allocation guarantee
// for the structured path: a reused executor runs an ATA request out of its
// arenas — at most 1 alloc/op once warm.
func TestStructuredReuseAllocsDFS(t *testing.T) {
	e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 1}, Steps: 2, Parallel: DFS})
	rng := rand.New(rand.NewSource(5))
	A := randMat(128, 96, rng)
	C := mat.New(96, 96)
	if err := e.Do(op.Request{Op: op.ATA, C: C, A: A}); err != nil { // warm the arenas
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() { e.Do(op.Request{Op: op.ATA, C: C, A: A}) })
	// Race instrumentation defeats the escape analysis and drops sync.Pool
	// items at random; the plain pass is the contract.
	if avg > 1 && !raceEnabled {
		t.Errorf("steady-state DFS ATA: %.1f allocs/op, want ≤ 1", avg)
	}
}
