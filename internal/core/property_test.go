package core

import (
	"math/rand"
	"testing"

	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

// TestEveryCatalogAlgorithmMatchesGemm is the arena-era property sweep:
// every catalog algorithm, under every scheduler, on randomized rectangular
// shapes — including odd sizes that trigger every dynamic-peeling fixup —
// must agree with the classical gemm oracle while reusing one executor (and
// therefore its warmed arenas) across all shapes.
func TestEveryCatalogAlgorithmMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
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
					// Random multiples of the base dims plus a random
					// remainder: trial 0 divides exactly, later trials peel.
					p := b.M * (1 + rng.Intn(4))
					q := b.K * (1 + rng.Intn(4))
					r := b.N * (1 + rng.Intn(4))
					if trial > 0 {
						p += rng.Intn(b.M)
						q += rng.Intn(b.K)
						r += rng.Intn(b.N)
					}
					A := randMat(p, q, rng)
					B := randMat(q, r, rng)
					got := mat.New(p, r)
					if err := e.Multiply(got, A, B); err != nil {
						t.Fatal(err)
					}
					want := mat.New(p, r)
					gemm.Mul(want, A, B)
					tol := 1e-10 * float64(q+1)
					if a.Numeric {
						tol = 1e-6 * float64(q+1)
					}
					if d := mat.MaxAbsDiff(got, want); d > tol {
						t.Fatalf("%s %v %dx%dx%d trial %d: max diff %g > %g",
							name, mode, p, q, r, trial, d, tol)
					}
				}
			}
		})
	}
}

// TestPeelingEdgeShapes drives the all-borders peeling case (every dimension
// leaves a remainder) at two recursion steps, where fixups nest.
func TestPeelingEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 4}, Steps: 2, Parallel: mode})
		for _, d := range [][3]int{{13, 9, 11}, {65, 67, 63}, {129, 127, 131}} {
			A := randMat(d[0], d[1], rng)
			B := randMat(d[1], d[2], rng)
			got := mat.New(d[0], d[2])
			if err := e.Multiply(got, A, B); err != nil {
				t.Fatal(err)
			}
			want := mat.New(d[0], d[2])
			gemm.Mul(want, A, B)
			if d2 := mat.MaxAbsDiff(got, want); d2 > 1e-10*float64(d[1]+1) {
				t.Fatalf("%v %v: max diff %g", mode, d, d2)
			}
		}
	}
}
