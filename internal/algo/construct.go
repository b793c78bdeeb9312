package algo

import (
	"fmt"

	"fastmm/internal/mat"
)

// Compose builds the tensor (Kronecker) composition of two algorithms: if a1
// solves ⟨M1,K1,N1⟩ in R1 multiplications and a2 solves ⟨M2,K2,N2⟩ in R2,
// the result solves ⟨M1·M2, K1·K2, N1·N2⟩ in R1·R2 multiplications. This is
// the construction behind the paper's ⟨54,54,54⟩ algorithm
// (⟨3,3,6⟩∘⟨3,6,3⟩∘⟨6,3,3⟩, §5.2) and behind entries like
// ⟨2,2,4⟩ = ⟨2,2,2⟩∘⟨1,1,2⟩.
//
// The factor matrices are Kronecker products with the row indices reordered
// from (block, inner) pairs to the row-major vectorization of the composed
// operands.
func Compose(a1, a2 *Algorithm, name string) *Algorithm {
	b1, b2 := a1.Base, a2.Base
	base := BaseCase{b1.M * b2.M, b1.K * b2.K, b1.N * b2.N}
	r1, r2 := a1.Rank(), a2.Rank()
	R := r1 * r2

	U := mat.New(base.M*base.K, R)
	for i1 := 0; i1 < b1.M; i1++ {
		for i2 := 0; i2 < b2.M; i2++ {
			for j1 := 0; j1 < b1.K; j1++ {
				for j2 := 0; j2 < b2.K; j2++ {
					row := (i1*b2.M+i2)*base.K + (j1*b2.K + j2)
					for c1 := 0; c1 < r1; c1++ {
						x1 := a1.U.At(i1*b1.K+j1, c1)
						if x1 == 0 {
							continue
						}
						for c2 := 0; c2 < r2; c2++ {
							if x2 := a2.U.At(i2*b2.K+j2, c2); x2 != 0 {
								U.Set(row, c1*r2+c2, x1*x2)
							}
						}
					}
				}
			}
		}
	}

	V := mat.New(base.K*base.N, R)
	for p1 := 0; p1 < b1.K; p1++ {
		for p2 := 0; p2 < b2.K; p2++ {
			for q1 := 0; q1 < b1.N; q1++ {
				for q2 := 0; q2 < b2.N; q2++ {
					row := (p1*b2.K+p2)*base.N + (q1*b2.N + q2)
					for c1 := 0; c1 < r1; c1++ {
						x1 := a1.V.At(p1*b1.N+q1, c1)
						if x1 == 0 {
							continue
						}
						for c2 := 0; c2 < r2; c2++ {
							if x2 := a2.V.At(p2*b2.N+q2, c2); x2 != 0 {
								V.Set(row, c1*r2+c2, x1*x2)
							}
						}
					}
				}
			}
		}
	}

	W := mat.New(base.M*base.N, R)
	for i1 := 0; i1 < b1.M; i1++ {
		for i2 := 0; i2 < b2.M; i2++ {
			for q1 := 0; q1 < b1.N; q1++ {
				for q2 := 0; q2 < b2.N; q2++ {
					row := (i1*b2.M+i2)*base.N + (q1*b2.N + q2)
					for c1 := 0; c1 < r1; c1++ {
						x1 := a1.W.At(i1*b1.N+q1, c1)
						if x1 == 0 {
							continue
						}
						for c2 := 0; c2 < r2; c2++ {
							if x2 := a2.W.At(i2*b2.N+q2, c2); x2 != 0 {
								W.Set(row, c1*r2+c2, x1*x2)
							}
						}
					}
				}
			}
		}
	}

	return &Algorithm{Name: name, Base: base, U: U, V: V, W: W,
		Numeric: a1.Numeric || a2.Numeric}
}

// SplitN concatenates algorithms for ⟨M,K,N1⟩ and ⟨M,K,N2⟩ into one for
// ⟨M,K,N1+N2⟩ with rank R1+R2: C = A·[B1 B2] = [A·B1, A·B2], two independent
// products. This realizes the rank bound
// rank⟨M,K,N1+N2⟩ ≤ rank⟨M,K,N1⟩ + rank⟨M,K,N2⟩, e.g. the Hopcroft-Kerr
// rank-11 ⟨2,2,3⟩ = Strassen ⊕ classical ⟨2,2,1⟩.
func SplitN(a1, a2 *Algorithm, name string) (*Algorithm, error) {
	b1, b2 := a1.Base, a2.Base
	if b1.M != b2.M || b1.K != b2.K {
		return nil, fmt.Errorf("algo: SplitN needs matching M,K; got %v and %v", b1, b2)
	}
	m, k := b1.M, b1.K
	n1, n2 := b1.N, b2.N
	n := n1 + n2
	r1, r2 := a1.Rank(), a2.Rank()
	R := r1 + r2

	U := mat.New(m*k, R)
	for i := 0; i < m*k; i++ {
		for c := 0; c < r1; c++ {
			U.Set(i, c, a1.U.At(i, c))
		}
		for c := 0; c < r2; c++ {
			U.Set(i, r1+c, a2.U.At(i, c))
		}
	}
	V := mat.New(k*n, R)
	for p := 0; p < k; p++ {
		for q := 0; q < n; q++ {
			row := p*n + q
			if q < n1 {
				for c := 0; c < r1; c++ {
					V.Set(row, c, a1.V.At(p*n1+q, c))
				}
			} else {
				for c := 0; c < r2; c++ {
					V.Set(row, r1+c, a2.V.At(p*n2+(q-n1), c))
				}
			}
		}
	}
	W := mat.New(m*n, R)
	for i := 0; i < m; i++ {
		for q := 0; q < n; q++ {
			row := i*n + q
			if q < n1 {
				for c := 0; c < r1; c++ {
					W.Set(row, c, a1.W.At(i*n1+q, c))
				}
			} else {
				for c := 0; c < r2; c++ {
					W.Set(row, r1+c, a2.W.At(i*n2+(q-n1), c))
				}
			}
		}
	}
	return &Algorithm{Name: name, Base: BaseCase{m, k, n}, U: U, V: V, W: W,
		Numeric: a1.Numeric || a2.Numeric}, nil
}

// SplitM concatenates algorithms for ⟨M1,K,N⟩ and ⟨M2,K,N⟩ into one for
// ⟨M1+M2,K,N⟩: [C1;C2] = [A1;A2]·B.
func SplitM(a1, a2 *Algorithm, name string) (*Algorithm, error) {
	b1, b2 := a1.Base, a2.Base
	if b1.K != b2.K || b1.N != b2.N {
		return nil, fmt.Errorf("algo: SplitM needs matching K,N; got %v and %v", b1, b2)
	}
	// Reduce to SplitN via the transpose symmetry: ⟨M,K,N⟩ᵀ swaps M and N.
	t1, t2 := Transpose(a1), Transpose(a2)
	t, err := SplitN(t1, t2, name)
	if err != nil {
		return nil, err
	}
	out := Transpose(t)
	out.Name = name
	return out, nil
}

// SplitK concatenates algorithms for ⟨M,K1,N⟩ and ⟨M,K2,N⟩ into one for
// ⟨M,K1+K2,N⟩: C = A1·B1 + A2·B2 with A = [A1 A2], B = [B1;B2]. Both
// sub-algorithms contribute additively to every output entry.
func SplitK(a1, a2 *Algorithm, name string) (*Algorithm, error) {
	b1, b2 := a1.Base, a2.Base
	if b1.M != b2.M || b1.N != b2.N {
		return nil, fmt.Errorf("algo: SplitK needs matching M,N; got %v and %v", b1, b2)
	}
	m, n := b1.M, b1.N
	k1, k2 := b1.K, b2.K
	k := k1 + k2
	r1, r2 := a1.Rank(), a2.Rank()
	R := r1 + r2

	U := mat.New(m*k, R)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			row := i*k + p
			if p < k1 {
				for c := 0; c < r1; c++ {
					U.Set(row, c, a1.U.At(i*k1+p, c))
				}
			} else {
				for c := 0; c < r2; c++ {
					U.Set(row, r1+c, a2.U.At(i*k2+(p-k1), c))
				}
			}
		}
	}
	V := mat.New(k*n, R)
	for p := 0; p < k; p++ {
		for q := 0; q < n; q++ {
			row := p*n + q
			if p < k1 {
				for c := 0; c < r1; c++ {
					V.Set(row, c, a1.V.At(p*n+q, c))
				}
			} else {
				for c := 0; c < r2; c++ {
					V.Set(row, r1+c, a2.V.At((p-k1)*n+q, c))
				}
			}
		}
	}
	W := mat.New(m*n, R)
	for i := 0; i < m*n; i++ {
		for c := 0; c < r1; c++ {
			W.Set(i, c, a1.W.At(i, c))
		}
		for c := 0; c < r2; c++ {
			W.Set(i, r1+c, a2.W.At(i, c))
		}
	}
	return &Algorithm{Name: name, Base: BaseCase{m, k, n}, U: U, V: V, W: W,
		Numeric: a1.Numeric || a2.Numeric}, nil
}
