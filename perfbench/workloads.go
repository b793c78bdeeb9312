package main

import (
	"fmt"
	"math/rand"

	"fastmm"
	"fastmm/internal/mat"
	"fastmm/internal/tuner"
)

// request is one multiplication of a workload, with the reference output
// the classical kernel computed for it during set-up.
type request struct {
	op      fastmm.Op
	class   tuner.ShapeClass // the named class the shape was drawn from
	m, k, n int              // the gemm-equivalent product triple ⟨m,k,n⟩
	A, B    *mat.Dense       // B is nil for OpATA
	At      *mat.Dense       // Aᵗ for OpATA: the classical baseline multiplies Aᵗ·A
	C       *mat.Dense       // output of the timed call
	ref     *mat.Dense
	scale   float64 // denominator of the normwise error
}

// newRequest draws the operands of one request from rng. For OpATA the
// operand A is k×n (the triple of Aᵗ·A is ⟨n,k,n⟩), and m must equal n.
func newRequest(o fastmm.Op, m, k, n int, rng *rand.Rand) *request {
	r := &request{op: o, m: m, k: k, n: n, C: mat.New(m, n)}
	if o == fastmm.OpATA {
		r.A = mat.New(k, n)
		r.A.FillRandom(rng)
		r.At = mat.New(n, k)
		mat.Transpose(r.At, r.A)
		r.scale = errScale(r.A, r.A, k)
	} else {
		r.A, r.B = mat.New(m, k), mat.New(k, n)
		r.A.FillRandom(rng)
		r.B.FillRandom(rng)
		r.scale = errScale(r.A, r.B, k)
	}
	return r
}

// fast is the request as the public API's operation type.
func (r *request) fast() fastmm.Request {
	return fastmm.Request{Op: r.op, C: r.C, A: r.A, B: r.B}
}

// classical computes the request's product with the classical kernel into
// dst using workers goroutines.
func (r *request) classical(dst *mat.Dense, workers int) {
	if r.op == fastmm.OpATA {
		fastmm.ClassicalParallel(dst, r.At, r.A, workers)
		return
	}
	fastmm.ClassicalParallel(dst, r.A, r.B, workers)
}

// setReference computes the reference output with the classical kernel.
func (r *request) setReference(workers int) {
	r.ref = mat.New(r.m, r.n)
	r.classical(r.ref, workers)
}

// flops is the request's Equation (3) flop count (of the gemm-equivalent
// triple, so a symmetric OpATA counts as the general product it replaces).
func (r *request) flops() float64 { return eq3Flops(r.m, r.k, r.n) }

// fixedShape is a square or panel workload: one shape, one fixed plan.
type fixedShape struct {
	m, k, n   int
	algorithm string
	opts      fastmm.Options
}

// workers is the worker budget of every workload: the 2-core machine the
// benchmark was sized on.
const workers = 2

var fixedShapes = map[string]fixedShape{
	// The leaf gemm does most of the work and the additions little.
	"square": {m: 2000, k: 2000, n: 2000, algorithm: "strassen", opts: fastmm.Options{
		Resources: fastmm.Resources{Workers: workers}, Steps: 2,
		Parallel: fastmm.Hybrid, Strategy: fastmm.WriteOnce, Fused: true,
	}},
	// The outer-product-like shape of the paper's Fig. 5: with a small k the
	// additions, the M scatter and the workspace weigh much more.
	"panel": {m: 3000, k: 600, n: 3000, algorithm: "fast424", opts: fastmm.Options{
		Resources: fastmm.Resources{Workers: workers}, Steps: 1,
		Parallel: fastmm.DFS, Strategy: fastmm.WriteOnce, Fused: true,
	}},
}

// fixedInput draws the operands of a square or panel workload from seed.
func fixedInput(s fixedShape, seed int64) *request {
	return newRequest(fastmm.OpMultiply, s.m, s.k, s.n, rand.New(rand.NewSource(seed)))
}

// serveClass is one named shape class of the serve mix, by its class
// representative (a grid point of tuner.ClassOf).
type serveClass struct {
	op      fastmm.Op
	m, k, n int
}

// serveClasses are the 16 classes of the serve mix: square, outer-product
// (small k) and panel (small n) multiplies from 128 to 768, and four AᵗA
// classes, a quarter of the mix. Sixteen (op, class) entries stay far below
// the batcher's default warm-pool size, so the pool never evicts.
var serveClasses = []serveClass{
	// square
	{fastmm.OpMultiply, 128, 128, 128},
	{fastmm.OpMultiply, 192, 192, 192},
	{fastmm.OpMultiply, 256, 256, 256},
	{fastmm.OpMultiply, 384, 384, 384},
	{fastmm.OpMultiply, 512, 512, 512},
	{fastmm.OpMultiply, 768, 768, 768},
	// outer product: small k
	{fastmm.OpMultiply, 512, 128, 512},
	{fastmm.OpMultiply, 640, 160, 640},
	{fastmm.OpMultiply, 768, 192, 768},
	// panel: small n
	{fastmm.OpMultiply, 384, 640, 128},
	{fastmm.OpMultiply, 512, 512, 160},
	{fastmm.OpMultiply, 768, 768, 128},
	// AᵗA of a k×n operand, triple ⟨n,k,n⟩
	{fastmm.OpATA, 192, 768, 192},
	{fastmm.OpATA, 256, 512, 256},
	{fastmm.OpATA, 320, 640, 320},
	{fastmm.OpATA, 384, 384, 384},
}

// perClass is how many distinct requests the serve mix draws per class.
const perClass = 2

// classLow is the smallest dimension that tuner.ClassOf buckets onto the
// grid point d.
func classLow(d int) int {
	lo := d
	for lo > 1 && tuner.ClassOf(lo-1, 1, 1).M == d {
		lo--
	}
	return lo
}

// jitter draws a dimension uniformly from the bucket whose grid point is d.
func jitter(d int, rng *rand.Rand) int {
	lo := classLow(d)
	return lo + rng.Intn(d-lo+1)
}

// serveInputs draws the serve mix from seed: perClass requests per class,
// in a seeded order. A request holds operands for its class representative
// with the inner dimension jittered inside its bucket; each submission
// then multiplies a jittered corner of it (see jitterDims and sub).
func serveInputs(seed int64) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*request
	for _, c := range serveClasses {
		named := tuner.ClassOf(c.m, c.k, c.n)
		if named != (tuner.ShapeClass{M: c.m, K: c.k, N: c.n}) {
			return nil, fmt.Errorf("serve class %dx%dx%d is not a class representative", c.m, c.k, c.n)
		}
		for i := 0; i < perClass; i++ {
			r := newRequest(c.op, c.m, jitter(c.k, rng), c.n, rng)
			r.class = named
			out = append(out, r)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// jitterDims draws the outer dimensions of one submission of r inside its
// class; an OpATA product is square, so both are the same draw.
func (r *request) jitterDims(rng *rand.Rand) (m, n int) {
	n = jitter(r.class.N, rng)
	if r.op == fastmm.OpATA {
		return n, n
	}
	return jitter(r.class.M, rng), n
}

// sub makes dst the m×n leading corner of r's product, with views of r's
// operands, output and reference stamped onto the headers h (no
// allocation). The corner of the product is the product of the leading
// rows of A and columns of B, so the corner of r's reference is its
// reference. For OpATA m must equal n.
func (r *request) sub(dst *request, h *[4]mat.Dense, m, n int) {
	*dst = request{op: r.op, class: r.class, m: m, k: r.k, n: n, scale: r.scale, A: &h[0], C: &h[2], ref: &h[3]}
	if r.op == fastmm.OpATA {
		r.A.ViewInto(&h[0], 0, 0, r.k, n)
		r.At.ViewInto(&h[1], 0, 0, n, r.k)
		dst.At = &h[1]
	} else {
		r.A.ViewInto(&h[0], 0, 0, m, r.k)
		r.B.ViewInto(&h[1], 0, 0, r.k, n)
		dst.B = &h[1]
	}
	r.C.ViewInto(&h[2], 0, 0, m, n)
	r.ref.ViewInto(&h[3], 0, 0, m, n)
}
