package main

import (
	"math/rand"
	"sync"
	"testing"

	"fastmm"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

var (
	timedOnce    sync.Once
	timedForTest *timedBackend
	defaultName  string
)

// timedTestBackend registers the timing backend once per test binary and
// remembers which backend was the default before it was registered.
func timedTestBackend() *timedBackend {
	timedOnce.Do(func() {
		defaultName = gemm.Default().Name()
		timedForTest = registerTimed(1024)
	})
	return timedForTest
}

func TestTimedBackendCanFuse(t *testing.T) {
	tb := timedTestBackend()
	if !gemm.CanFuse(tb) {
		t.Fatal("the timing backend must implement gemm.FusedBackend")
	}
	be, err := gemm.Get(timedName)
	if err != nil || be != gemm.Backend(tb) {
		t.Fatalf("registry lookup of %q = %v, %v", timedName, be, err)
	}
}

func TestTimedBackendLeavesDefaultUnchanged(t *testing.T) {
	timedTestBackend()
	if got := gemm.Default().Name(); got != defaultName {
		t.Fatalf("default backend = %q after registration, want %q", got, defaultName)
	}
}

func TestTimedBackendBitIdentical(t *testing.T) {
	tb := timedTestBackend()
	rng := rand.New(rand.NewSource(9))
	A, B := mat.New(300, 260), mat.New(260, 280)
	A.FillRandom(rng)
	B.FillRandom(rng)
	for _, fused := range []bool{false, true} {
		opts := fastmm.Options{Resources: fastmm.Resources{Workers: 2}, Steps: 2, Parallel: fastmm.DFS, Fused: fused}
		var outs [2]*mat.Dense
		for i, backend := range []string{defaultName, timedName} {
			opts.Backend = backend
			e, err := fastmm.NewExecutor("strassen", opts)
			if err != nil {
				t.Fatal(err)
			}
			if e.Fused() != fused {
				t.Fatalf("backend %q fused = %v, want %v", backend, e.Fused(), fused)
			}
			outs[i] = mat.New(300, 280)
			if err := e.Multiply(outs[i], A, B); err != nil {
				t.Fatal(err)
			}
		}
		a, b := outs[0].Data(), outs[1].Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("fused=%v: element %d differs: %v vs %v", fused, j, a[j], b[j])
			}
		}
	}
	if tb.log.calls.Load() == 0 || tb.log.fusedCalls.Load() == 0 {
		t.Fatalf("timing backend saw %d explicit and %d fused calls, want both > 0",
			tb.log.calls.Load(), tb.log.fusedCalls.Load())
	}
}

func TestLeafUnionCountsOverlapOnce(t *testing.T) {
	l := newLeafLog(8)
	l.add(0, 10, 1, 0, false)
	l.add(5, 20, 1, 0, false)
	l.add(30, 35, 2, 0, true)
	if got := l.unionNanos(); got != 25 {
		t.Fatalf("union = %d, want 25", got)
	}
	if got := l.workerNanos.Load(); got != 10+15+10 {
		t.Fatalf("worker nanos = %d, want 35", got)
	}
}
