//go:build race

package batch

// raceEnabled turns off the allocation comparisons: under -race,
// sync.Pool.Put drops items at random and instrumentation defeats escape
// analysis, so alloc counts say nothing about the code. The plain pass
// asserts them.
const raceEnabled = true
