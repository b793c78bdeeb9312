package main

import (
	"fmt"
	"os"

	"fastmm/internal/mat"
	"fastmm/stability"
)

// errBound is the normwise relative error every output must meet: the
// 1e-10 tolerance the core tests apply to fast-vs-classical results.
const errBound = 1e-10

// normwiseError is stability.Measurement's error of got against ref:
// max|got − ref| / (‖A‖_max·‖B‖_max·k), where scale is the denominator.
func normwiseError(got, ref *mat.Dense, scale float64) stability.Measurement {
	return stability.Measurement{RelError: mat.MaxAbsDiff(got, ref) / scale}
}

// errScale is the denominator of the normwise error for C = A·B with inner
// dimension k.
func errScale(A, B *mat.Dense, k int) float64 {
	s := A.MaxAbs() * B.MaxAbs() * float64(k)
	if s == 0 {
		return 1
	}
	return s
}

// tally counts multiplies attempted and failed: a failure is an error
// returned by the call or an output outside errBound. It is not safe for
// concurrent use; each client keeps its own and they are merged.
type tally struct {
	attempted int
	failed    int
	reported  int // failures already printed (bounded, to keep output short)
}

// record checks one output and counts it. what names the call in the
// diagnostic printed for a failure. It reports whether the output passed.
func (t *tally) record(what string, err error, got, ref *mat.Dense, scale float64) bool {
	t.attempted++
	if err == nil {
		m := normwiseError(got, ref, scale)
		if m.RelError <= errBound {
			return true
		}
		err = fmt.Errorf("normwise error %.3g exceeds %g", m.RelError, errBound)
	}
	t.failed++
	if t.reported < 5 {
		t.reported++
		fmt.Fprintf(os.Stderr, "check failed: %s: %v\n", what, err)
	}
	return false
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// okFrac is the share of attempted multiplies that returned no error and
// passed the check: 1 − failed_frac.
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}

// report records ok_frac, with failed_frac and the counts in its note.
// The benchmark gates on ok_frac rather than failed_frac because a gated
// metric must not be 0 when all is well.
func (t tally) report(rep *report) {
	rep.set("ok_frac", t.okFrac(), "fraction",
		fmt.Sprintf("failed_frac %g: %d of %d multiplies failed or missed the %g normwise bound",
			1-t.okFrac(), t.failed, t.attempted, errBound))
}
