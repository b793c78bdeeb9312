//go:build race

package fastmm_test

// raceEnabled turns off the allocation pins: under -race, sync.Pool.Put
// drops items at random and instrumentation defeats escape analysis, so
// alloc counts say nothing about the code. The plain pass asserts the pins.
const raceEnabled = true
