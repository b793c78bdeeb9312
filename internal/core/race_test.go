//go:build race

package core

// raceEnabled turns off the allocation pins: race instrumentation defeats
// the escape analysis that keeps fixup closures and scheduling state off
// the heap, and sync.Pool.Put drops items at random (the gemm packing slabs
// and the transpose scratch are pooled), so alloc counts under -race say
// nothing about the arenas. The plain pass asserts the pins.
const raceEnabled = true
