package op

import (
	"errors"
	"testing"

	"fastmm/internal/mat"
)

// TestValidateAliasing: C may sit beside its inputs in one parent, never on
// top of them.
func TestValidateAliasing(t *testing.T) {
	p := mat.New(8, 8)
	left, right := p.View(0, 0, 8, 4), p.View(0, 4, 8, 4)
	sq := mat.New(4, 4)
	cases := []struct {
		name  string
		req   Request
		alias bool
	}{
		{"disjoint halves of one parent", Request{C: left, A: right.View(0, 0, 8, 4), B: sq}, false},
		{"B beside C in one parent", Request{C: p.View(0, 0, 4, 4), A: sq, B: p.View(4, 4, 4, 4)}, false},
		{"A and B share storage", Request{C: mat.New(4, 4), A: sq, B: sq}, false},
		{"ATA into the other half", Request{Op: ATA, C: p.View(0, 0, 4, 4), A: right}, false},
		{"C == A", Request{C: sq, A: sq, B: mat.New(4, 4)}, true},
		{"C == B", Request{C: sq, A: mat.New(4, 4), B: sq}, true},
		{"overlapping blocks", Request{C: p.View(0, 0, 4, 4), A: p.View(2, 2, 4, 4), B: mat.New(4, 4)}, true},
		{"ATA with C == A", Request{Op: ATA, C: sq, A: sq}, true},
		{"Syrk into its own operand", Request{Op: Syrk, C: p.View(0, 0, 4, 4), A: p.View(0, 0, 4, 8)}, true},
		{"MultiplyAdd onto B", Request{Op: MultiplyAdd, C: right.View(0, 0, 4, 4), A: mat.New(4, 8), B: right}, true},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if c.alias != errors.Is(err, ErrAlias) || (!c.alias && err != nil) {
			t.Errorf("%s: Validate = %v, want alias=%v", c.name, err, c.alias)
		}
	}
}

// TestValidateAllocFree: the accept path runs under Executor.Do on every
// request and must not allocate.
func TestValidateAllocFree(t *testing.T) {
	p := mat.New(8, 8)
	req := Request{C: p.View(0, 0, 8, 4), A: p.View(0, 4, 8, 4), B: mat.New(4, 4)}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %.1f/op", allocs)
	}
}

// FuzzRequestValidate builds C, A and B as views of one or two small parents
// and checks Validate against brute force: it accepts exactly when the dims
// fit the op and no element of C shares its address with an element of an
// input.
func FuzzRequestValidate(f *testing.F) {
	f.Add(uint8(0), false, uint8(6), uint8(6), uint32(0x0033), uint32(0x3033), uint32(0x0333), true)
	f.Add(uint8(1), true, uint8(5), uint8(7), uint32(0x1133), uint32(0x2244), uint32(0), false)
	f.Add(uint8(2), false, uint8(8), uint8(8), uint32(0x0022), uint32(0x1122), uint32(0), false)
	f.Add(uint8(3), false, uint8(4), uint8(4), uint32(0x0044), uint32(0x0044), uint32(0x0044), true)
	f.Fuzz(func(t *testing.T, opb uint8, two bool, pr, pc uint8, cv, av, bv uint32, hasB bool) {
		rows, cols := 1+int(pr%8), 1+int(pc%8)
		parents := [2]*mat.Dense{mat.New(rows, cols), mat.New(rows, cols)}
		// view decodes one packed view: parent, top-left corner and size,
		// clamped into the parent (zero-sized views included).
		view := func(v uint32) *mat.Dense {
			par := parents[0]
			if two && v>>16&1 == 1 {
				par = parents[1]
			}
			i := int(v>>12&15) % (rows + 1)
			j := int(v>>8&15) % (cols + 1)
			r := int(v>>4&15) % (rows - i + 1)
			c := int(v&15) % (cols - j + 1)
			return par.View(i, j, r, c)
		}
		req := Request{Op: Op(int(opb) % (NumOps + 1)), C: view(cv), A: view(av)}
		if hasB {
			req.B = view(bv)
		}
		err := req.Validate()

		want := dimsLegal(req) && !sharesElement(req.C, req.A) && (req.B == nil || !sharesElement(req.C, req.B))
		if (err == nil) != want {
			t.Fatalf("%s C %d×%d A %d×%d B %v: Validate = %v, brute force accepts=%v",
				req.Op, req.C.Rows(), req.C.Cols(), req.A.Rows(), req.A.Cols(), req.B != nil, err, want)
		}
		if errors.Is(err, ErrAlias) != (dimsLegal(req) && err != nil) {
			t.Fatalf("%s: error %v, dims legal %v", req.Op, err, dimsLegal(req))
		}
	})
}

// dimsLegal restates the per-op dimension rules.
func dimsLegal(r Request) bool {
	c, a, b := r.C, r.A, r.B
	switch r.Op {
	case Multiply, MultiplyAdd:
		return b != nil && a.Cols() == b.Rows() && c.Rows() == a.Rows() && c.Cols() == b.Cols()
	case ATA:
		return b == nil && c.Rows() == a.Cols() && c.Cols() == a.Cols()
	case Syrk:
		return b == nil && c.Rows() == a.Rows() && c.Cols() == a.Rows()
	}
	return false
}

// sharesElement compares every element address of x with every one of y.
func sharesElement(x, y *mat.Dense) bool {
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			for k := 0; k < y.Rows(); k++ {
				for l := 0; l < y.Cols(); l++ {
					if &x.Row(i)[j] == &y.Row(k)[l] {
						return true
					}
				}
			}
		}
	}
	return false
}
