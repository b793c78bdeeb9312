//go:build !amd64 || nosimd

// Package avx holds the architecture-specific half of the "simd" leaf
// backend. On this build (non-amd64, or the `nosimd` tag) the assembly is
// compiled out: Supported is false and the gemm package does not register
// the "simd" backend, leaving "portable" as the only blocked kernel.
package avx

// Supported is false on builds without the assembly kernel.
const Supported = false

// Dgemm6x8 must never be called when Supported is false.
func Dgemm6x8(kb int, ap, bp, c *float64, ldc int) {
	panic("gemm/avx: Dgemm6x8 called on a build without the assembly kernel")
}
