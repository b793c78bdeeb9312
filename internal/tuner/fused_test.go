package tuner

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// TestRankEnumeratesFused: on a fuse-capable backend every explicit fast plan
// has a fused twin in the candidate list (a one-step twin under the first
// strategy only, see TestRankOpFusedOneStepOnce), and the twin's model
// workspace is never larger (the fused level drops its S/T/M temporaries).
func TestRankEnumeratesFused(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	ranked, err := tn.RankOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		alg, backend, par, strat string
		steps                    int
	}
	explicit := map[variant]Plan{}
	fused := map[variant]Plan{}
	for _, p := range ranked {
		if p.IsClassical() {
			if p.Fused {
				t.Fatalf("classical plan marked fused: %+v", p)
			}
			continue
		}
		v := variant{p.Algorithm, p.Backend, p.Parallel, p.Strategy, p.Steps}
		if p.Fused {
			be, err := gemm.Get(p.Backend)
			if err != nil {
				t.Fatal(err)
			}
			if !gemm.CanFuse(be) {
				t.Fatalf("fused plan on a backend that cannot fuse: %+v", p)
			}
			fused[v] = p
		} else {
			explicit[v] = p
		}
	}
	if len(fused) == 0 {
		t.Fatal("no fused candidates enumerated (default backend should fuse)")
	}
	for v, ep := range explicit {
		be, err := gemm.Get(v.backend)
		if err != nil {
			t.Fatal(err)
		}
		if !gemm.CanFuse(be) {
			continue
		}
		if v.steps == 1 {
			v.strat = tn.opts.Strategies[0].String()
		}
		fp, ok := fused[v]
		if !ok {
			t.Errorf("explicit plan %s has no fused twin", ep)
			continue
		}
		if fp.WorkspaceBytes > ep.WorkspaceBytes {
			t.Errorf("%s: fused workspace %d exceeds explicit %d", fp, fp.WorkspaceBytes, ep.WorkspaceBytes)
		}
	}
}

// TestRankOpFusedOneStepOnce: a one-step fused plan runs the same way under
// every addition strategy, so the ranking holds no two such plans that differ
// only in Strategy.
func TestRankOpFusedOneStepOnce(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	if len(tn.opts.Strategies) < 2 {
		t.Fatalf("need at least two strategies, have %v", tn.opts.Strategies)
	}
	for _, o := range []op.Op{op.Multiply, op.ATA} {
		ranked, err := tn.RankOp(o, 512, 512, 512)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Plan]bool{}
		n := 0
		for _, p := range ranked {
			if !p.Fused || p.Steps != 1 {
				continue
			}
			n++
			p.Strategy, p.PredictedSeconds, p.WorkspaceBytes = "", 0, 0
			if seen[p] {
				t.Errorf("%s: one-step fused plan enumerated under more than one strategy", p)
			}
			seen[p] = true
		}
		if n == 0 {
			t.Errorf("%s: no one-step fused plans ranked", o)
		}
	}
}

// TestFusedPlanBuildsAndPersists: a fused plan round-trips through the JSON
// cache encoding, renders its marker in String(), builds an executor with the
// fused engine engaged, and multiplies correctly.
func TestFusedPlanBuildsAndPersists(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	p := Plan{
		Algorithm: "strassen",
		Backend:   gemm.Default().Name(),
		Steps:     1,
		Parallel:  "dfs",
		Strategy:  "write-once",
		Fused:     true,
		Workers:   1,
	}
	if !strings.Contains(p.String(), "fused") {
		t.Errorf("Plan.String() %q does not mark the fused dimension", p.String())
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Fused {
		t.Fatal("Fused flag lost in JSON round trip")
	}
	d, err := tn.build(op.Multiply, back)
	if err != nil {
		t.Fatal(err)
	}
	if d.exec == nil || !d.exec.Fused() {
		t.Fatal("built executor did not engage the fused engine")
	}
	rng := rand.New(rand.NewSource(11))
	n := 200
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	got, want := mat.New(n, n), mat.New(n, n)
	if err := d.run(op.Request{C: got, A: A, B: B}); err != nil {
		t.Fatal(err)
	}
	gemm.Mul(want, A, B)
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(n+1) {
		t.Fatalf("fused plan multiply max diff %g", diff)
	}
}
