package gemm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmm/internal/mat"
)

func randMat(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.New(r, c)
	m.FillRandom(rng)
	return m
}

// tolFor scales the comparison tolerance with the inner dimension.
func tolFor(k int) float64 { return 1e-12 * float64(k+1) }

func TestMulMatchesNaiveVariedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 1, 9}, {1, 17, 1},
		{16, 16, 16}, {47, 48, 49}, {48, 48, 48}, {49, 50, 51},
		{64, 64, 64}, {100, 37, 83}, {129, 257, 63}, {200, 200, 200},
		{3, 300, 5}, {301, 2, 303}, {130, 260, 70},
	}
	for _, s := range sizes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			A, B := randMat(m, k, rng), randMat(k, n, rng)
			want := mat.New(m, n)
			Naive(want, A, B)
			got := mat.New(m, n)
			Mul(got, A, B)
			if d := mat.MaxAbsDiff(got, want); d > tolFor(k) {
				t.Fatalf("Mul differs from Naive by %g", d)
			}
		})
	}
}

func TestMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	A, B := randMat(60, 70, rng), randMat(70, 55, rng)
	C := randMat(60, 55, rng)
	orig := C.Clone()
	prod := mat.New(60, 55)
	Naive(prod, A, B)

	Dispatch(Default(), C, 1, A, B, true, 1)
	want := mat.New(60, 55)
	for i := 0; i < 60; i++ {
		for j := 0; j < 55; j++ {
			want.Set(i, j, orig.At(i, j)+prod.At(i, j))
		}
	}
	if d := mat.MaxAbsDiff(C, want); d > tolFor(70) {
		t.Fatalf("accumulating gemm off by %g", d)
	}
}

func TestMulScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	A, B := randMat(33, 44, rng), randMat(44, 22, rng)
	want := mat.New(33, 22)
	Naive(want, A, B)
	mat.Scale(want, -2.5, want)
	got := mat.New(33, 22)
	MulScaled(got, -2.5, A, B)
	if d := mat.MaxAbsDiff(got, want); d > tolFor(44) {
		t.Fatalf("MulScaled off by %g", d)
	}
}

func TestMulScaledZeroAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	A, B := randMat(10, 10, rng), randMat(10, 10, rng)
	C := randMat(10, 10, rng)
	MulScaled(C, 0, A, B)
	if C.MaxAbs() != 0 {
		t.Fatal("alpha=0 with no accumulate must zero C")
	}
	C2 := randMat(10, 10, rng)
	orig := C2.Clone()
	MulAddScaled(C2, 0, A, B)
	if d := mat.MaxAbsDiff(C2, orig); d != 0 {
		t.Fatal("alpha=0 with accumulate must leave C untouched")
	}
}

func TestMulParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][3]int{
		{257, 129, 255}, // row split
		{33, 129, 702},  // col split
		{3, 200, 3},     // too small to split
		{512, 64, 512},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		A, B := randMat(m, k, rng), randMat(k, n, rng)
		want := mat.New(m, n)
		Mul(want, A, B)
		for _, w := range []int{2, 3, 8} {
			got := mat.New(m, n)
			MulParallel(got, 1, A, B, w)
			if d := mat.MaxAbsDiff(got, want); d > tolFor(k) {
				t.Fatalf("%v workers=%d differs by %g", s, w, d)
			}
		}
	}
}

func TestMulAddParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	A, B := randMat(200, 100, rng), randMat(100, 180, rng)
	C := randMat(200, 180, rng)
	want := C.Clone()
	be := Default()
	Dispatch(be, want, 1, A, B, true, 1)
	Dispatch(be, C, 1, A, B, true, 6)
	if d := mat.MaxAbsDiff(C, want); d > tolFor(100) {
		t.Fatalf("parallel accumulate off by %g", d)
	}
}

func TestMulOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big := randMat(300, 300, rng)
	A := big.View(10, 20, 100, 120)
	B := big.View(50, 60, 120, 90)
	want := mat.New(100, 90)
	Naive(want, A, B)
	Cbig := mat.New(200, 200)
	C := Cbig.View(5, 7, 100, 90)
	Mul(C, A, B)
	if d := mat.MaxAbsDiff(C, want); d > tolFor(120) {
		t.Fatalf("view gemm off by %g", d)
	}
	// Nothing outside the C view may be written.
	if Cbig.At(4, 7) != 0 || Cbig.At(105, 7) != 0 || Cbig.At(5, 97) != 0 {
		t.Fatal("gemm wrote outside destination view")
	}
}

func TestEmptyDims(t *testing.T) {
	A, B := mat.New(0, 5), mat.New(5, 4)
	C := mat.New(0, 4)
	Mul(C, A, B) // must not panic
	A2, B2 := mat.New(3, 0), mat.New(0, 4)
	C2 := mat.New(3, 4)
	C2.Fill(1)
	Mul(C2, A2, B2)
	if C2.MaxAbs() != 0 {
		t.Fatal("k=0 product must zero C")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(mat.New(2, 2), mat.New(2, 3), mat.New(2, 2))
}

func TestIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%60)+1, int(c8%60)+1
		A := randMat(r, c, rng)
		C := mat.New(r, c)
		Mul(C, A, mat.Eye(c))
		return mat.EqualApprox(C, A, 1e-13)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: gemm is bilinear — (sA)·B == s(A·B).
func TestBilinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(s int8) bool {
		sc := float64(s%5) / 2
		A, B := randMat(30, 40, rng), randMat(40, 20, rng)
		As := A.Clone()
		mat.Scale(As, sc, As)
		x, y := mat.New(30, 20), mat.New(30, 20)
		Mul(x, As, B)
		Mul(y, A, B)
		mat.Scale(y, sc, y)
		return mat.MaxAbsDiff(x, y) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func benchMul(b *testing.B, n, workers int) {
	rng := rand.New(rand.NewSource(9))
	A, B := randMat(n, n, rng), randMat(n, n, rng)
	C := mat.New(n, n)
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulParallel(C, 1, A, B, workers)
	}
	b.StopTimer()
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkMul256Seq(b *testing.B)  { benchMul(b, 256, 1) }
func BenchmarkMul512Seq(b *testing.B)  { benchMul(b, 512, 1) }
func BenchmarkMul1024Seq(b *testing.B) { benchMul(b, 1024, 1) }
func BenchmarkMul1024P8(b *testing.B)  { benchMul(b, 1024, 8) }
func BenchmarkMul2048P24(b *testing.B) { benchMul(b, 2048, 24) }
