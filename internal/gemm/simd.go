package gemm

import (
	"fastmm/internal/gemm/avx"
	"fastmm/internal/mat"
)

// The "simd" backend exists only where its AVX2+FMA kernel can run: amd64
// builds without the `nosimd` tag, on a CPU with AVX2/FMA/OS-YMM support.
// Everywhere else "portable" is the one pure-Go kernel.
func init() {
	if avx.Supported {
		Register(newBlocked("simd", true, 6, 8, microKernel6x8asm))
	}
}

// microKernel6x8asm adapts the packed-panel call onto the assembly kernel:
// the tile's top-left element address plus the row stride is all the asm
// needs to accumulate straight into C.
func microKernel6x8asm(C *mat.Dense, i0, j0, kb int, ap, bp []float64) {
	d := C.Data()
	avx.Dgemm6x8(kb, &ap[0], &bp[0], &d[i0*C.Stride()+j0], C.Stride())
}
