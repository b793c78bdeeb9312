package main

import (
	"math/rand"
	"testing"

	"fastmm"
	"fastmm/internal/mat"
	"fastmm/internal/tuner"
)

func sameMatrix(a, b *mat.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

func TestSameSeedSameInputs(t *testing.T) {
	s := fixedShape{m: 64, k: 40, n: 56}
	x, y, z := fixedInput(s, 5), fixedInput(s, 5), fixedInput(s, 6)
	if !sameMatrix(x.A, y.A) || !sameMatrix(x.B, y.B) {
		t.Fatal("the same seed gave different fixed inputs")
	}
	if sameMatrix(x.A, z.A) {
		t.Fatal("different seeds gave the same fixed inputs")
	}

	a, err := serveInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != perClass*len(serveClasses) {
		t.Fatalf("got %d and %d requests, want %d", len(a), len(b), perClass*len(serveClasses))
	}
	for i := range a {
		if a[i].op != b[i].op || a[i].m != b[i].m || a[i].k != b[i].k || a[i].n != b[i].n ||
			!sameMatrix(a[i].A, b[i].A) || !sameMatrix(a[i].B, b[i].B) {
			t.Fatalf("request %d differs between two draws with the same seed", i)
		}
	}
}

func TestServeJitterStaysInsideClasses(t *testing.T) {
	named := map[tuner.ShapeClass]bool{}
	for _, c := range serveClasses {
		named[tuner.ShapeClass{M: c.m, K: c.k, N: c.n}] = true
	}
	rng := rand.New(rand.NewSource(11))
	jittered, ata, total := 0, 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		reqs, err := serveInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			total++
			if r.op == fastmm.OpATA {
				ata++
			}
			if !named[r.class] {
				t.Fatalf("seed %d: request names class %v, not one of the serve classes", seed, r.class)
			}
			if seed == 1 {
				r.setReference(1)
			}
			for i := 0; i < 20; i++ {
				m, n := r.jitterDims(rng)
				if got := tuner.ClassOf(m, r.k, n); got != r.class {
					t.Fatalf("seed %d: shape %dx%dx%d falls in class %v, named %v", seed, m, r.k, n, got, r.class)
				}
				if seed == 1 {
					var sub request
					var hdr [4]mat.Dense
					r.sub(&sub, &hdr, m, n)
					if gm, gk, gn := sub.fast().Shape(); gm != m || gk != r.k || gn != n {
						t.Fatalf("corner %dx%dx%d, operands give %dx%dx%d", m, r.k, n, gm, gk, gn)
					}
				}
				if m != r.class.M || r.k != r.class.K || n != r.class.N {
					jittered++
				}
			}
		}
	}
	if jittered == 0 {
		t.Fatal("no submission was jittered off its class representative")
	}
	if 4*ata != total {
		t.Fatalf("%d of %d requests are AᵗA, want a quarter", ata, total)
	}
}

func TestCornerReferenceIsCornerOfReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, o := range []fastmm.Op{fastmm.OpMultiply, fastmm.OpATA} {
		r := newRequest(o, 96, 70, 96, rng)
		r.setReference(1)
		var sub request
		var hdr [4]mat.Dense
		r.sub(&sub, &hdr, 81, 81)
		if err := fastmm.Do(sub.fast(), fastmm.AutoOptions{ProbeTopK: fastmm.AutoNoProbes, Profile: pinnedProfile(), NoDiskCache: true}); err != nil {
			t.Fatal(err)
		}
		var tl tally
		if !tl.record("corner", nil, sub.C, sub.ref, sub.scale) {
			t.Fatalf("%v: the corner of the product misses the corner of the reference", o)
		}
	}
}
