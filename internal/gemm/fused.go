package gemm

import (
	"fmt"
	"sync"

	"fastmm/internal/mat"
)

// Scaled is a (matrix, coefficient) operand of the fused engine. It aliases
// mat.Scaled so the workspace arenas can hand out []Scaled scratch without an
// import cycle.
type Scaled = mat.Scaled

// FusedBackend is the optional capability a Backend advertises when it can
// run the fmm-gen style fused leaf (Huang et al., arXiv:1611.01120): the
// [U,V,W] linear combinations of one fast-multiplication step folded into the
// packing routines and the micro-kernel epilogue, so the S/T operand sums and
// the M product are never materialized.
//
// GemmFused computes the rank-1 bilinear update
//
//	P = (Σ_t asrcs[t].Coeff · asrcs[t].M) · (Σ_t bsrcs[t].Coeff · bsrcs[t].M)
//	dsts[d].M (+)= dsts[d].Coeff · alpha · P      for every destination d
//
// with accumulate=false meaning every destination is overwritten and
// accumulate=true meaning the scatter adds on top of the existing contents —
// except destinations carrying Scaled.Overwrite, which are overwritten
// regardless (the executor marks each block's first-touch product so no
// zeroing pass precedes the scatter). Destinations must not alias any
// source. Callers go through DispatchFused, which validates shapes and strips
// the degenerate cases, so implementations see m,n,k ≥ 1, non-empty operand
// lists, alpha ≠ 0, and workers ≥ 1.
type FusedBackend interface {
	Backend
	GemmFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int)
}

// CanFuse reports whether be supports the fused leaf natively. Backends that
// cannot (the blas bridge) still work through DispatchFused, which
// materializes the operand sums exactly like the explicit path — CanFuse is
// how the tuner and executor decide whether fusing buys anything.
func CanFuse(be Backend) bool {
	_, ok := be.(FusedBackend)
	return ok
}

// DispatchFused is the fused counterpart of Dispatch: it validates the
// operand lists, strips degenerate problems, and routes to the backend's
// GemmFused — or, for backends without one, to a fallback that materializes
// S and T and scatters the explicit product, preserving the semantics (but
// not the workspace savings) everywhere.
func DispatchFused(be Backend, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	m, k, n := checkDimsFused(dsts, asrcs, bsrcs)
	if len(dsts) == 0 || m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		// A vanished product contributes zero: overwritten destinations
		// (either globally or via their first-touch flag) become zero.
		for _, d := range dsts {
			if !accumulate || d.Overwrite {
				d.M.Zero()
			}
		}
		return
	}
	if workers < 1 {
		workers = 1
	}
	if fb, ok := be.(FusedBackend); ok {
		//fastmm:allow FusedBackend interface dispatch; the registry kernels are vetted via gemmFusedSeq
		fb.GemmFused(dsts, alpha, asrcs, bsrcs, accumulate, workers)
		return
	}
	fusedFallback(be, dsts, alpha, asrcs, bsrcs, accumulate, workers)
}

// fusedFallback emulates GemmFused on a backend without native support: it
// materializes the S/T operand sums and the product exactly like the explicit
// executor path, then scatter-adds. It allocates — the point of the fused
// engine is that blocked backends never take this path, and the executor only
// engages fusion when the backend is a FusedBackend.
//
//fastmm:allow fallback materializes by design; fused executors never reach it
func fusedFallback(be Backend, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	S := materializeSum(asrcs, m, k)
	T := materializeSum(bsrcs, k, n)
	P := mat.New(m, n)
	be.Gemm(P, alpha, S, T, false, workers)
	for _, d := range dsts {
		if !accumulate || d.Overwrite {
			mat.Scale(d.M, d.Coeff, P)
		} else {
			mat.Axpy(d.M, d.Coeff, P)
		}
	}
}

// materializeSum returns Σ c_t·M_t, reusing the single source directly when
// its coefficient is 1.
func materializeSum(srcs []Scaled, r, c int) *mat.Dense {
	if plain(srcs) {
		return srcs[0].M
	}
	out := mat.New(r, c)
	for _, s := range srcs {
		mat.Axpy(out, s.Coeff, s.M)
	}
	return out
}

func checkDimsFused(dsts, asrcs, bsrcs []Scaled) (m, k, n int) {
	if len(asrcs) == 0 || len(bsrcs) == 0 {
		panic("gemm: fused dispatch with empty source list")
	}
	m, k = asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n = bsrcs[0].M.Cols()
	for _, s := range asrcs {
		if s.M.Rows() != m || s.M.Cols() != k {
			//fastmm:allow panic-path message construction
			panic(fmt.Sprintf("gemm: fused A source %d×%d, want %d×%d", s.M.Rows(), s.M.Cols(), m, k))
		}
	}
	for _, s := range bsrcs {
		if s.M.Rows() != k || s.M.Cols() != n {
			//fastmm:allow panic-path message construction
			panic(fmt.Sprintf("gemm: fused B source %d×%d, want %d×%d", s.M.Rows(), s.M.Cols(), k, n))
		}
	}
	for _, d := range dsts {
		if d.M.Rows() != m || d.M.Cols() != n {
			//fastmm:allow panic-path message construction
			panic(fmt.Sprintf("gemm: fused destination %d×%d, want %d×%d", d.M.Rows(), d.M.Cols(), m, n))
		}
	}
	return m, k, n
}

// GemmFused implements FusedBackend for every blocked backend: the multi-
// source packers form the S/T sums inside the packing pass (one extra read
// per extra source, no temporary), and the product reaches the destinations
// one of two ways — straight through the micro-kernel when a destination
// can absorb it (lone destination, or an overwritten ±1-weight primary the
// others are folded from), or via a pooled scratch tile whose epilogue
// scatter-adds into every destination with its W coefficient.
func (bk *blockedBackend) GemmFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	if workers == 1 {
		bk.gemmFusedSeq(dsts, alpha, asrcs, bsrcs, accumulate)
		return
	}
	bk.parallelSlabsFused(dsts, alpha, asrcs, bsrcs, accumulate, workers)
}

// gemmFusedSeq is the sequential blocked kernel — the innermost leaf of every
// multiply, fused or plain (Gemm is its one-term call). Packing slabs, the
// scratch tile, and the small-path scratch all come from the pool, so steady
// state allocates nothing; fmmvet holds it and everything it calls to that.
//
//fastmm:zeroalloc
func (bk *blockedBackend) gemmFusedSeq(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	if m <= naiveMax && n <= naiveMax && k <= naiveMax {
		bk.smallFused(dsts, alpha, asrcs, bsrcs, accumulate)
		return
	}
	pb := bk.pool.Get().(*packBufs)
	defer bk.pool.Put(pb)
	// A lone destination, or an overwritten ±1-weight one among several,
	// absorbs the whole product: its coefficient folds into the packed-A
	// scale and the micro-kernel — AVX2 included — accumulates into it
	// across every k-panel at full width. The kernel can only add, so an
	// overwritten one is zeroed first, and the other destinations are
	// derived from it in one block-sized sweep each.
	for i, d := range dsts {
		ow := overwrites(d, true, accumulate)
		if len(dsts) > 1 && (!ow || (d.Coeff != 1 && d.Coeff != -1)) {
			continue
		}
		if ow {
			d.M.Zero()
		}
		one := [1]Scaled{{M: d.M, Coeff: 1}}
		bk.blockedLoop(pb, one[:], alpha*d.Coeff, asrcs, bsrcs, true)
		for j, o := range dsts {
			if j == i {
				continue
			}
			// d holds d.Coeff·alpha·P with d.Coeff = ±1, so
			// o.Coeff·alpha·P = (o.Coeff·d.Coeff)·d — exact, no division.
			w := o.Coeff * d.Coeff
			if overwrites(o, true, accumulate) {
				mat.Scale(o.M, w, d.M)
			} else {
				mat.Axpy(o.M, w, d.M)
			}
		}
		return
	}
	bk.blockedLoop(pb, dsts, alpha, asrcs, bsrcs, accumulate)
}

// packAFused packs the mb×kb panel at (ic, pc) of the scaled sum
// alpha·Σ c_t·A_t into ap in micro-panel order: for each group of mr rows,
// the kb columns are stored k-major ([k*mr + i]), zero-padded to a multiple
// of mr rows. The first source overwrites, the rest accumulate — the S
// temporary of the explicit path becomes one extra streaming read per extra
// source.
func packAFused(ap []float64, srcs []Scaled, ic, pc, mb, kb, mr int, alpha float64) {
	idx := 0
	for ir := 0; ir < mb; ir += mr {
		rows := min(mr, mb-ir)
		for i := 0; i < rows; i++ {
			dst := ap[idx+i:]
			c0 := alpha * srcs[0].Coeff
			src := srcs[0].M.Row(ic + ir + i)[pc : pc+kb]
			for kk, v := range src {
				dst[kk*mr] = c0 * v
			}
			for _, s := range srcs[1:] {
				cs := alpha * s.Coeff
				src := s.M.Row(ic + ir + i)[pc : pc+kb]
				for kk, v := range src {
					dst[kk*mr] += cs * v
				}
			}
		}
		for i := rows; i < mr; i++ {
			dst := ap[idx+i:]
			for kk := 0; kk < kb; kk++ {
				dst[kk*mr] = 0
			}
		}
		idx += mr * kb
	}
}

// packBFused packs the kb×nb panel at (pc, jc) of Σ c_t·B_t into bp in
// micro-panel order: for each group of nr columns, the kb rows are stored
// k-major ([k*nr + j]), zero-padded to a multiple of nr columns.
// Coefficients are applied here, so the T temporary of the explicit path is
// never formed.
func packBFused(bp []float64, srcs []Scaled, pc, jc, kb, nb, nr int) {
	idx := 0
	for jr := 0; jr < nb; jr += nr {
		cols := min(nr, nb-jr)
		for kk := 0; kk < kb; kk++ {
			dst := bp[idx+kk*nr : idx+kk*nr+nr]
			c0 := srcs[0].Coeff
			src := srcs[0].M.Row(pc + kk)
			for j := 0; j < cols; j++ {
				dst[j] = c0 * src[jc+jr+j]
			}
			for j := cols; j < nr; j++ {
				dst[j] = 0
			}
			for _, s := range srcs[1:] {
				cs := s.Coeff
				src := s.M.Row(pc + kk)
				for j := 0; j < cols; j++ {
					dst[j] += cs * src[jc+jr+j]
				}
			}
		}
		idx += nr * kb
	}
}

// overwrites reports whether the destination is written (=) rather than
// accumulated (+=) on the first k-panel: either the whole call overwrites or
// the destination carries the executor's first-touch mark.
func overwrites(d Scaled, first, accumulate bool) bool {
	return first && (!accumulate || d.Overwrite)
}

// scatterTile folds coeff·tile[0:rows, 0:cols] into each destination at
// (i0, j0) — the fused epilogue. Overwriting destinations are written
// outright on the first k-panel, so no zeroing pass ever precedes the
// scatter.
func scatterTile(dsts []Scaled, tile *mat.Dense, i0, j0, rows, cols int, first, accumulate bool) {
	for _, d := range dsts {
		w := d.Coeff
		ow := overwrites(d, first, accumulate)
		for i := 0; i < rows; i++ {
			src := tile.Row(i)[:cols:cols]
			dst := d.M.Row(i0 + i)[j0 : j0+cols : j0+cols]
			switch {
			case ow && w == 1:
				copy(dst, src)
			case ow && w == -1:
				for j, v := range src {
					dst[j] = -v
				}
			case ow:
				for j, v := range src {
					dst[j] = w * v
				}
			case w == 1:
				for j, v := range src {
					dst[j] += v
				}
			case w == -1:
				for j, v := range src {
					dst[j] -= v
				}
			default:
				for j, v := range src {
					dst[j] += w * v
				}
			}
		}
	}
}

// smallFused handles problems below the blocked cutoff with the i-p-j loop.
// A side that is one coefficient-1 source is read in place; any other S or
// T sum is formed in pooled scratch (naiveMax² floats, far under one packing
// slab). A lone destination takes the product directly, several are folded
// from one pooled product — so a plain gemm touches no scratch at all.
func (bk *blockedBackend) smallFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	var pb *packBufs
	if len(dsts) > 1 || !plain(asrcs) || !plain(bsrcs) {
		pb = bk.pool.Get().(*packBufs)
		defer bk.pool.Put(pb)
	}
	S, T := asrcs[0].M, bsrcs[0].M
	if !plain(asrcs) {
		S = sumInto(pb.sS, pb.a[:m*k], m, k, asrcs)
	}
	if !plain(bsrcs) {
		T = sumInto(pb.sT, pb.b[:k*n], k, n, bsrcs)
	}
	if len(dsts) == 1 {
		d := dsts[0]
		small(d.M, alpha*d.Coeff, S, T, accumulate && !d.Overwrite)
		return
	}
	pb.sP.Reset(m, n, pb.a[m*k:m*k+m*n])
	small(pb.sP, alpha, S, T, false)
	for _, d := range dsts {
		if !accumulate || d.Overwrite {
			mat.Scale(d.M, d.Coeff, pb.sP)
		} else {
			mat.Axpy(d.M, d.Coeff, pb.sP)
		}
	}
}

// plain reports whether an operand list is one coefficient-1 source, which
// can be read in place instead of summed.
func plain(srcs []Scaled) bool { return len(srcs) == 1 && srcs[0].Coeff == 1 }

// sumInto stamps hdr over buf as an r×c matrix holding Σ c_t·M_t.
func sumInto(hdr *mat.Dense, buf []float64, r, c int, srcs []Scaled) *mat.Dense {
	hdr.Reset(r, c, buf)
	mat.Scale(hdr, srcs[0].Coeff, srcs[0].M)
	for _, s := range srcs[1:] {
		mat.Axpy(hdr, s.Coeff, s.M)
	}
	return hdr
}

// parallelSlabsFused parallelizes the fused call over independent slabs of
// the destinations: row slabs (splitting dsts and asrcs) when the problem is
// tall, column slabs (splitting dsts and bsrcs) when wide, and one
// sequential call when neither dimension spans two micro-tiles. Each slab is
// an independent sequential call, so no reductions are needed. The per-slab
// view headers and goroutine closures are spawn-path allocations.
func (bk *blockedBackend) parallelSlabsFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	mr, nr := bk.mr, bk.nr
	var wg sync.WaitGroup
	runSlab := func(d, a, b []Scaled) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bk.gemmFusedSeq(d, alpha, a, b, accumulate)
		}()
	}
	if m >= n && m >= 2*mr {
		nchunks := min(workers, (m+mr-1)/mr)
		for _, r := range ranges(m, nchunks) {
			d := viewRows(dsts, r.lo, r.n, n)
			a := viewRows(asrcs, r.lo, r.n, k)
			runSlab(d, a, bsrcs)
		}
	} else if n >= 2*nr {
		nchunks := min(workers, (n+nr-1)/nr)
		for _, r := range ranges(n, nchunks) {
			d := viewCols(dsts, r.lo, r.n, m)
			b := viewCols(bsrcs, r.lo, r.n, k)
			runSlab(d, asrcs, b)
		}
	} else {
		bk.gemmFusedSeq(dsts, alpha, asrcs, bsrcs, accumulate)
		return
	}
	wg.Wait()
}

func viewRows(list []Scaled, lo, nrows, cols int) []Scaled {
	out := make([]Scaled, len(list))
	for i, s := range list {
		out[i] = Scaled{M: s.M.View(lo, 0, nrows, cols), Coeff: s.Coeff, Overwrite: s.Overwrite}
	}
	return out
}

func viewCols(list []Scaled, lo, ncols, rows int) []Scaled {
	out := make([]Scaled, len(list))
	for i, s := range list {
		out[i] = Scaled{M: s.M.View(0, lo, rows, ncols), Coeff: s.Coeff, Overwrite: s.Overwrite}
	}
	return out
}
