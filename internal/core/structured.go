package core

import (
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/trace"
	"fastmm/internal/workspace"
)

// This file is the symmetric-recursion scheduler for the structured
// operations AᵗA (Gram) and A·Aᵗ (SYRK), after Arrigoni/Massini
// (arXiv:1902.02104): split the result C into quadrants, recurse on the two
// diagonal blocks (which are themselves Gram/SYRK products), compute the
// lower off-diagonal block ONCE with the executor's general fast-multiply
// recursion, and fill the upper block by a mirror transpose. The recurrence
// T(n) = 2·T(n/2) + M(n/2) does roughly two-thirds of a general multiply's
// work with a fast M — symmetry is free flops.
//
// The write-once lower-triangle + mirror epilogue also buys exactness: every
// C[i][j] with i > j is computed once and copied (not recomputed) into
// C[j][i], and diagonal leaf blocks are mirrored from their lower triangle,
// so C[i][j] == C[j][i] holds bit-for-bit under ANY leaf backend — not just
// ones whose accumulation order happens to be symmetric.

// structured runs the symmetric recursion for Do, overwriting C with
// alpha·Aᵗ·A (gram) or alpha·A·Aᵗ. gram selects p = cols, q = rows;
// otherwise p = rows, q = cols. Either way one materialized transpose of A
// turns the problem into C = L·R with L == Rᵗ, which is the invariant the
// recursion maintains on every diagonal subblock.
func (e *Executor) structured(C, A *mat.Dense, gram bool, alpha float64, tr *trace.Spans) {
	p, q := A.Cols(), A.Rows()
	if !gram {
		p, q = A.Rows(), A.Cols()
	}
	mode := e.structuredMode(p, q)
	ctx := e.newCall(mode, 0, p, q, p, tr)
	ar := e.arenas.Get()
	defer e.arenas.Put(ar)
	if mode == Sequential || mode == DFS {
		ar.Reserve(int(e.structuredFloats(mode, p, q)))
	}
	// One materialized transpose (the only O(m·n) extra traffic the
	// operation pays); everything below works on views of A and Tr.
	Tr := ar.Matrix(A.Cols(), A.Rows())
	parTranspose(Tr, A, ctx.additionWorkers())
	L, R := Tr, A // gram: C = Aᵗ·A
	if !gram {
		L, R = A, Tr // syrk: C = A·Aᵗ
	}
	e.symRecurse(ctx, ar, C, L, R, alpha)
}

// structuredMode resolves the scheduler for a structured call: the
// configured mode with two adjustments — HYBRID degrades to BFS (the
// symmetric recursion issues many independent multiply trees, and HYBRID's
// deferred-leaf numbering assumes exactly one), and the Workspace cap
// degrades BFS to DFS like scheduleMode does for Multiply.
func (e *Executor) structuredMode(p, q int) Parallel {
	mode := e.opts.Parallel
	if mode == Hybrid {
		mode = BFS
	}
	if cap := e.opts.Workspace; cap > 0 && mode == BFS {
		if e.structuredBytes(mode, p, q) > cap {
			mode = DFS
		}
	}
	return mode
}

// symRecurse computes C = alpha·L·R where L == Rᵗ exactly (L is p×q, R is
// q×p, C is p×p). Diagonal blocks recurse; the lower off-diagonal block runs
// the general fast-multiply recursion; the upper is its mirror.
func (e *Executor) symRecurse(ctx *runContext, ar *workspace.Arena, C, L, R *mat.Dense, alpha float64) {
	p, q := L.Rows(), L.Cols()
	if p < 2*e.opts.MinDim || p < 2 {
		e.symLeaf(ctx, C, L, R, alpha)
		return
	}
	h := p / 2
	L1 := ar.View(L, 0, 0, h, q)
	L2 := ar.View(L, h, 0, p-h, q)
	R1 := ar.View(R, 0, 0, q, h)
	R2 := ar.View(R, 0, h, q, p-h)
	e.symRecurse(ctx, ar, ar.View(C, 0, 0, h, h), L1, R1, alpha)
	e.symRecurse(ctx, ar, ar.View(C, h, h, p-h, p-h), L2, R2, alpha)
	// The off-diagonal block C21 = L2·R1 is a general product — this is the
	// M(n/2) term of the recurrence, served by the executor's fast-multiply
	// recursion (algorithm schedule, peeling, scheduler and all).
	c21 := ar.View(C, h, 0, p-h, h)
	e.multiply(ctx, ar, c21, L2, R1, alpha, 0, 0, false)
	// Mirror epilogue: C12 = C21ᵗ, copied — never recomputed — so the two
	// triangles agree bit-for-bit.
	parMirror(ar.View(C, 0, h, h, p-h), c21, ctx.additionWorkers())
}

// symLeaf computes one diagonal block C = alpha·L·R with the leaf kernel and
// mirrors its lower triangle up, enforcing exact symmetry within the block.
func (e *Executor) symLeaf(ctx *runContext, C, L, R *mat.Dense, alpha float64) {
	if s := e.opts.Stats; s != nil {
		s.add(&s.LeafCalls, 1)
	}
	switch ctx.mode {
	case Sequential:
		gemm.DispatchTraced(e.be, C, alpha, L, R, false, 1, ctx.tr)
		mirrorLower(C)
	case DFS:
		gemm.DispatchTraced(e.be, C, alpha, L, R, false, ctx.workers, ctx.tr)
		mirrorLower(C)
	default: // BFS (structuredMode never yields Hybrid)
		//fastmm:allow BFS task body; per-task captures are the spawn cost
		ctx.compute(func() {
			gemm.DispatchTraced(e.be, C, alpha, L, R, false, 1, ctx.tr)
			mirrorLower(C)
		})
	}
}

// mirrorLower copies the strict lower triangle of the square matrix onto the
// strict upper one: C[i][j] = C[j][i] for i < j.
func mirrorLower(C *mat.Dense) {
	n := C.Rows()
	for i := 1; i < n; i++ {
		row := C.Row(i)
		for j := 0; j < i; j++ {
			C.Set(j, i, row[j])
		}
	}
}

// parMirror writes dst = srcᵗ (dst is r×c, src is c×r), parallelized over
// dst's rows like the other addition helpers; single-worker and small cases
// run direct so the DFS steady state stays allocation-free.
func parMirror(dst, src *mat.Dense, workers int) {
	rows := dst.Rows()
	if workers <= 1 || rows < parRowThreshold {
		mirrorInto(dst, src, 0, rows)
		return
	}
	//fastmm:allow row-slab fan-out; the workers<=1 steady state returned above
	eachRows(rows, workers, func(lo, n int) { mirrorInto(dst, src, lo, lo+n) })
}

func mirrorInto(dst, src *mat.Dense, lo, hi int) {
	cols := dst.Cols()
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := 0; j < cols; j++ {
			row[j] = src.At(j, i)
		}
	}
}

// parTranspose writes dst = srcᵗ with the same parallelization policy.
func parTranspose(dst, src *mat.Dense, workers int) { parMirror(dst, src, workers) }

// structuredFloats is the float64 footprint of one structured call: the
// materialized transpose plus the largest concurrent off-diagonal multiply
// (the top split's — deeper ones reuse its released arena space in DFS and
// draw pool arenas in BFS).
func (e *Executor) structuredFloats(mode Parallel, p, q int) int64 {
	f := int64(p) * int64(q)
	if h := p / 2; h > 0 && p-h > 0 {
		f += e.workspaceFloats(mode, p-h, q, h, 0)
	}
	return f
}

func (e *Executor) structuredBytes(mode Parallel, p, q int) int64 {
	return 8 * (e.structuredFloats(mode, p, q) + e.packFloats(mode))
}

// WorkspaceBytesATA predicts the peak workspace of one ATA request on an
// m×n operand, the structured counterpart of WorkspaceBytes.
func (e *Executor) WorkspaceBytesATA(m, n int) int64 {
	return e.structuredBytes(e.structuredMode(n, m), n, m)
}

// WorkspaceBytesSyrk predicts the peak workspace of one Syrk request on an
// m×n operand.
func (e *Executor) WorkspaceBytesSyrk(m, n int) int64 {
	return e.structuredBytes(e.structuredMode(m, n), m, n)
}
