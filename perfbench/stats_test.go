package main

import (
	"math"
	"testing"
)

func TestMedianOfEvenCountIsMeanOfMiddlePair(t *testing.T) {
	// An upper-middle "median" would report 3 here.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	if got := median([]float64{0.7, 0.5}); got != 0.6 {
		t.Fatalf("median of two = %g, want 0.6", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of odd count = %g, want 2", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4) == [2.25, 4.5, 6.75]
	s := summarize([]float64{8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range []struct{ got, want float64 }{{s.Q1, 2.25}, {s.Median, 4.5}, {s.Q3, 6.75}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("quartiles = %g %g %g, want 2.25 4.5 6.75", s.Q1, s.Median, s.Q3)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64(25 - i)
	}
	s := summarize(xs)
	// Sorted 1..25: the 15th value has exactly ten above it.
	if s.Tail != 15 || math.Abs(s.TailPct-100*14.0/24) > 1e-9 {
		t.Fatalf("tail = %g at p%g, want 15 at p%g", s.Tail, s.TailPct, 100*14.0/24)
	}
	if s := summarize([]float64{1, 5, 3}); s.Tail != 5 || s.TailPct != 100 {
		t.Fatalf("tail of 3 samples = %g at p%g, want the maximum", s.Tail, s.TailPct)
	}
}
