package gemm

import (
	"fmt"
	"sync"

	"fastmm/internal/mat"
)

// maxMR/maxNR bound the micro-tile dims a blocked backend may use (every
// worker's pooled scratch tile is maxMR×maxNR).
const (
	maxMR = 8
	maxNR = 8
)

// microKernelFunc computes a full mr×nr tile of C at (i0, j0):
// C[i0:i0+mr, j0:j0+nr] += Ap·Bp over kb rank-1 terms, with Ap and Bp in the
// packed micro-panel layouts produced by packAFused/packBFused.
type microKernelFunc func(C *mat.Dense, i0, j0, kb int, ap, bp []float64)

// blockedBackend is the shared GotoBLAS/BLIS-structured engine: everything —
// panel blocking, packing, slab parallelism, edge handling — is generic, and
// only the full-tile micro-kernel (plus its MR×NR shape) differs per backend,
// the BLIS thesis applied to this repository. There is one loop nest: a plain
// gemm is the one-term case of the fused leaf (GemmFused).
type blockedBackend struct {
	name         string
	accel        bool
	mr, nr       int
	kern         microKernelFunc
	apLen, bpLen int // packing-slab sizes in float64s
	pool         sync.Pool
}

// newBlocked builds a blocked backend around one micro-kernel. The packing
// slabs are sized for the worst-case panel (mc and nc rounded up to whole
// micro-tiles), so any mr/nr ≤ maxMR/maxNR works with the shared blocking
// parameters.
func newBlocked(name string, accel bool, mr, nr int, kern microKernelFunc) *blockedBackend {
	if mr < 1 || nr < 1 || mr > maxMR || nr > maxNR {
		panic(fmt.Sprintf("gemm: micro-tile %d×%d outside supported 1..%d×1..%d", mr, nr, maxMR, maxNR))
	}
	bk := &blockedBackend{
		name:  name,
		accel: accel,
		mr:    mr,
		nr:    nr,
		kern:  kern,
		apLen: ((mc + mr - 1) / mr) * mr * kc,
		bpLen: kc * ((nc + nr - 1) / nr) * nr,
	}
	// Pooling pointers (not bare slices) keeps steady-state Get/Put
	// allocation-free — storing a []float64 in the pool's `any` would box a
	// fresh slice header on every Put.
	bk.pool.New = func() any {
		return &packBufs{
			a:    make([]float64, bk.apLen),
			b:    make([]float64, bk.bpLen),
			tile: mat.New(maxMR, maxNR),
			sS:   &mat.Dense{}, sT: &mat.Dense{}, sP: &mat.Dense{},
		}
	}
	return bk
}

// packBufs is one worker's packing slab: the A and B panel buffers together
// (one pool round-trip per gemm call), the micro-tile the kernel computes
// into before the epilogue folds it into the destinations, and three matrix
// headers the small path stamps over the slabs.
type packBufs struct {
	a, b       []float64
	tile       *mat.Dense
	sS, sT, sP *mat.Dense
}

func (bk *blockedBackend) Name() string               { return bk.name }
func (bk *blockedBackend) Accelerated() bool          { return bk.accel }
func (bk *blockedBackend) PackFloatsPerWorker() int64 { return int64(bk.apLen + bk.bpLen) }

// Gemm is the one-term fused call: C (+)= alpha·(1·A)·(1·B) into the lone
// destination 1·C. The sequential operand lists live on the stack, so a
// sequential gemm allocates nothing once the pool is warm.
func (bk *blockedBackend) Gemm(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int) {
	if workers == 1 {
		d, a, b := [1]Scaled{{M: C, Coeff: 1}}, [1]Scaled{{M: A, Coeff: 1}}, [1]Scaled{{M: B, Coeff: 1}}
		bk.gemmFusedSeq(d[:], alpha, a[:], b[:], accumulate)
		return
	}
	bk.parallelSlabsFused([]Scaled{{M: C, Coeff: 1}}, alpha, []Scaled{{M: A, Coeff: 1}}, []Scaled{{M: B, Coeff: 1}}, accumulate, workers)
}

// blockedLoop is the blocked loop nest over (Σc·A)·(Σc·B): k-panels, then
// column panels of B packed once per k-panel, then row panels of A, each
// pair multiplied by macroKernel. alpha is folded into packed A. Only the
// first k-panel may overwrite: later panels accumulate the remaining rank-1
// terms on top.
func (bk *blockedBackend) blockedLoop(pb *packBufs, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	for pc := 0; pc < k; pc += kc {
		kb := min(kc, k-pc)
		for jc := 0; jc < n; jc += nc {
			nb := min(nc, n-jc)
			packBFused(pb.b, bsrcs, pc, jc, kb, nb, bk.nr)
			for ic := 0; ic < m; ic += mc {
				mb := min(mc, m-ic)
				packAFused(pb.a, asrcs, ic, pc, mb, kb, bk.mr, alpha)
				bk.macroKernel(dsts, pb.tile, ic, jc, mb, nb, kb, pb.a, pb.b, pc == 0, accumulate)
			}
		}
	}
}

// macroKernel multiplies the packed mb×kb A panel by the packed kb×nb B
// panel and folds the product into dsts at (ic, jc). A lone accumulating
// coefficient-1 destination takes full tiles straight from the micro-kernel.
// Every other tile — including the partial tiles at the borders, which the
// zero-padded panels let the same micro-kernel compute — goes into the
// scratch tile, and scatterTile folds its valid rows×cols part into every
// destination.
func (bk *blockedBackend) macroKernel(dsts []Scaled, tile *mat.Dense, ic, jc, mb, nb, kb int, ap, bp []float64, first, accumulate bool) {
	mr, nr := bk.mr, bk.nr
	direct := len(dsts) == 1 && dsts[0].Coeff == 1 && !overwrites(dsts[0], first, accumulate)
	for jr := 0; jr < nb; jr += nr {
		cols := min(nr, nb-jr)
		bpanel := bp[(jr/nr)*nr*kb:]
		for ir := 0; ir < mb; ir += mr {
			rows := min(mr, mb-ir)
			apanel := ap[(ir/mr)*mr*kb:]
			if direct && rows == mr && cols == nr {
				bk.kern(dsts[0].M, ic+ir, jc+jr, kb, apanel, bpanel) //fastmm:allow static micro-kernel func pointer, bound at registry init
				continue
			}
			tile.Zero()
			bk.kern(tile, 0, 0, kb, apanel, bpanel) //fastmm:allow static micro-kernel func pointer, bound at registry init
			scatterTile(dsts, tile, ic+ir, jc+jr, rows, cols, first, accumulate)
		}
	}
}
