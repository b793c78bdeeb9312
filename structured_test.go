// Tests for the operation-typed public surface: fastmm.Do,
// Batcher.SubmitRequest/Do, and the Classical helpers' backend-registry
// routing.
package fastmm_test

import (
	"math"
	"testing"

	"fastmm"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

// refATAPub computes the Aᵗ·A oracle through the naive loop nest.
func refATAPub(A *fastmm.Matrix) *fastmm.Matrix {
	n := A.Cols()
	want := fastmm.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < A.Rows(); k++ {
				s += A.At(k, i) * A.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	return want
}

func maxAbsDiffPub(a, b *fastmm.Matrix) float64 {
	var maxd float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > maxd {
				maxd = d
			}
		}
	}
	return maxd
}

// TestPublicStructuredOps drives ATA, Syrk, and general requests through
// the package-level Do.
func TestPublicStructuredOps(t *testing.T) {
	opts := autoTestOpts(2)
	A := fastmm.RandomMatrix(90, 60, 3)

	C := fastmm.NewMatrix(60, 60)
	if err := fastmm.Do(fastmm.Request{Op: fastmm.OpATA, C: C, A: A}, opts); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffPub(C, refATAPub(A)); d > 1e-9 {
		t.Fatalf("ATA: diff %g", d)
	}
	for i := 0; i < 60; i++ {
		for j := 0; j < i; j++ {
			if C.At(i, j) != C.At(j, i) {
				t.Fatalf("ATA result not exactly symmetric at (%d,%d)", i, j)
			}
		}
	}

	S := fastmm.NewMatrix(90, 90)
	if err := fastmm.Do(fastmm.Request{Op: fastmm.OpSyrk, C: S, A: A}, opts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		for j := 0; j < i; j++ {
			if S.At(i, j) != S.At(j, i) {
				t.Fatalf("Syrk result not exactly symmetric at (%d,%d)", i, j)
			}
		}
	}

	// The general request form: C = 2·A·B + C, Multiply-with-accumulate.
	B := fastmm.RandomMatrix(60, 50, 4)
	D := fastmm.RandomMatrix(90, 50, 5)
	want := fastmm.NewMatrix(90, 50)
	naiveMul(want, A, B)
	for i := 0; i < 90; i++ {
		for j := 0; j < 50; j++ {
			want.Set(i, j, 2*want.At(i, j)+D.At(i, j))
		}
	}
	if err := fastmm.Do(fastmm.Request{Op: fastmm.OpMultiply, C: D, A: A, B: B, Alpha: 2, Beta: 1}, opts); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffPub(D, want); d > 1e-9 {
		t.Fatalf("Do(multiply, alpha=2, beta=1): diff %g", d)
	}

	// A mis-shaped request fails loudly, before any dispatch.
	if err := fastmm.Do(fastmm.Request{Op: fastmm.OpATA, C: fastmm.NewMatrix(3, 3), A: A}, opts); err == nil {
		t.Fatal("mis-shaped ATA request must fail")
	}
}

// TestBatcherStructuredRequests drives structured requests through the
// public Batcher surface, sync and async.
func TestBatcherStructuredRequests(t *testing.T) {
	b, err := fastmm.NewBatcher(batchTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	A := fastmm.RandomMatrix(80, 48, 6)
	want := refATAPub(A)

	C := fastmm.NewMatrix(48, 48)
	if err := b.Do(fastmm.Request{Op: fastmm.OpATA, C: C, A: A}); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffPub(C, want); d > 1e-9 {
		t.Fatalf("Batcher.Do ATA: diff %g", d)
	}

	C2 := fastmm.NewMatrix(48, 48)
	tk, err := b.SubmitRequest(fastmm.Request{Op: fastmm.OpATA, C: C2, A: A}, fastmm.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffPub(C2, want); d > 1e-9 {
		t.Fatalf("Batcher.SubmitRequest ATA: diff %g", d)
	}
	st := b.Stats()
	if st.Ops["ata"] != 2 {
		t.Fatalf("Stats.Ops = %v, want ata:2", st.Ops)
	}
}

// recordingBackend wraps another backend and counts Gemm dispatches — the
// regression probe for Classical/ClassicalParallel honoring the registry.
type recordingBackend struct {
	inner gemm.Backend
	calls int
}

func (r *recordingBackend) Name() string      { return r.inner.Name() }
func (r *recordingBackend) Accelerated() bool { return r.inner.Accelerated() }
func (r *recordingBackend) Gemm(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int) {
	r.calls++
	r.inner.Gemm(C, alpha, A, B, accumulate, workers)
}
func (r *recordingBackend) PackFloatsPerWorker() int64 { return r.inner.PackFloatsPerWorker() }

// TestClassicalHonorsBackendRegistry pins the fix for Classical and
// ClassicalParallel bypassing the backend registry: both must dispatch
// through the process default backend, so a SetDefault (or FASTMM_BACKEND)
// redirects them.
func TestClassicalHonorsBackendRegistry(t *testing.T) {
	orig, err := gemm.Get("portable")
	if err != nil {
		t.Fatal(err)
	}
	origDefault := gemm.Default().Name()
	rec := &recordingBackend{inner: orig}
	gemm.Register(rec)
	defer func() {
		gemm.Register(orig)
		if err := gemm.SetDefault(origDefault); err != nil {
			t.Fatal(err)
		}
	}()
	if err := gemm.SetDefault("portable"); err != nil {
		t.Fatal(err)
	}

	A := fastmm.RandomMatrix(20, 20, 7)
	B := fastmm.RandomMatrix(20, 20, 8)
	C := fastmm.NewMatrix(20, 20)
	fastmm.Classical(C, A, B)
	if rec.calls == 0 {
		t.Fatal("Classical bypassed the default backend")
	}
	before := rec.calls
	fastmm.ClassicalParallel(C, A, B, 2)
	if rec.calls == before {
		t.Fatal("ClassicalParallel bypassed the default backend")
	}

	want := fastmm.NewMatrix(20, 20)
	naiveMul(want, A, B)
	if d := maxAbsDiffPub(C, want); d > 1e-10 {
		t.Fatalf("ClassicalParallel through recording backend: diff %g", d)
	}
}
