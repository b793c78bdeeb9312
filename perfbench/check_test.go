package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fastmm"
	"fastmm/internal/mat"
)

func TestCorruptedOutputIsCounted(t *testing.T) {
	r := newRequest(fastmm.OpMultiply, 40, 24, 32, rand.New(rand.NewSource(3)))
	r.setReference(1)
	fastmm.Classical(r.C, r.A, r.B)
	var tl tally
	if !tl.record("clean", nil, r.C, r.ref, r.scale) {
		t.Fatal("a correct output failed its check")
	}
	r.C.Set(5, 7, r.C.At(5, 7)+1e-6)
	if tl.record("corrupted", nil, r.C, r.ref, r.scale) {
		t.Fatal("a corrupted output passed its check")
	}
	if tl.record("error", errors.New("boom"), r.ref, r.ref, r.scale) {
		t.Fatal("a call that returned an error passed its check")
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", tl.attempted, tl.failed)
	}
	if got := tl.okFrac(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("okFrac = %g, want 1/3", got)
	}
}

func TestNormwiseErrorScale(t *testing.T) {
	ref := mat.New(2, 2)
	got := mat.New(2, 2)
	got.Set(1, 0, 0.5)
	if m := normwiseError(got, ref, 4); m.RelError != 0.125 {
		t.Fatalf("RelError = %g, want 0.125", m.RelError)
	}
}
