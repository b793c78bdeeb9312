package tuner

import (
	"testing"
	"time"

	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/op"
)

// backendProfile fabricates a calibration where the "simd" backend is 4x the
// "portable" backend at every size, so backend-aware ranking is deterministic.
func backendProfile(workers int) *Profile {
	curve := func(scale float64) []costmodel.GemmSample {
		return []costmodel.GemmSample{
			{N: 64, SeqGFLOPS: scale, ParGFLOPS: scale},
			{N: 512, SeqGFLOPS: 1.5 * scale, ParGFLOPS: 1.5 * scale},
		}
	}
	return &Profile{
		Version:    ProfileVersion,
		CreatedAt:  time.Now(),
		GOMAXPROCS: workers,
		Machine: costmodel.Machine{
			Workers: workers,
			Gemm:    curve(1),
			BackendGemm: map[string][]costmodel.GemmSample{
				"portable": curve(1),
				"simd":     curve(4),
			},
			AddSeqGBps: 20,
			AddParGBps: 20,
		},
	}
}

// TestRankEnumeratesBackendDimension: every candidate carries a backend, both
// backends appear (classical and fast plans alike), and with a 4x-faster simd
// curve the winner must be a simd plan.
func TestRankEnumeratesBackendDimension(t *testing.T) {
	if _, err := gemm.Get("simd"); err != nil {
		t.Skip("simd backend not registered in this build or on this CPU")
	}
	tn, err := New(Options{
		Resources:   Resources{Workers: 1, Backends: []string{"portable", "simd"}},
		Profile:     backendProfile(1),
		ProbeTopK:   NoProbes,
		NoDiskCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := tn.RankOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	classical := map[string]bool{}
	for _, p := range ranked {
		if p.Backend == "" {
			t.Fatalf("plan %v has no backend", p)
		}
		seen[p.Backend] = true
		if p.IsClassical() {
			classical[p.Backend] = true
		}
	}
	for _, be := range []string{"portable", "simd"} {
		if !seen[be] {
			t.Fatalf("backend %q missing from candidates", be)
		}
		if !classical[be] {
			t.Fatalf("classical baseline missing for backend %q", be)
		}
	}
	if ranked[0].Backend != "simd" {
		t.Fatalf("4x-faster simd curve must win the ranking, got %v", ranked[0])
	}

	// The executed decision honors the backend, and the plan round-trips
	// through build (the disk-cache path).
	plan, err := tn.PlanForOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Backend != "simd" {
		t.Fatalf("PlanFor picked %v, want a simd plan", plan)
	}
	d, err := tn.build(op.Multiply, plan)
	if err != nil {
		t.Fatal(err)
	}
	if d.be.Name() != "simd" {
		t.Fatalf("built decision resolved backend %q", d.be.Name())
	}
	if d.exec != nil && d.exec.Backend() != "simd" {
		t.Fatalf("executor resolved backend %q", d.exec.Backend())
	}
}

// TestBackendRestrictionChangesKey: restricting Backends must change the
// cache key (differently restricted tuners never share entries) and unknown
// backends must fail New.
func TestBackendRestrictionChangesKey(t *testing.T) {
	mk := func(backends []string) *Tuner {
		tn, err := New(Options{
			Resources: Resources{Workers: 1, Backends: backends},
			Profile:   backendProfile(1), ProbeTopK: NoProbes,
			NoDiskCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	all := mk(nil)
	portable := mk([]string{"portable"})
	// With portable the only registered backend (`nosimd` builds), the
	// restriction names the full set and the keys rightly agree.
	if len(gemm.Names()) > 1 && all.key(op.Multiply, 64, 64, 64) == portable.key(op.Multiply, 64, 64, 64) {
		t.Fatal("backend restriction must enter the cache key")
	}

	if _, err := New(Options{Resources: Resources{Backends: []string{"no-such-backend"}},
		Profile: backendProfile(1), NoDiskCache: true}); err == nil {
		t.Fatal("unknown backend must fail New")
	}

	// Restricted tuners only pick from their set.
	plan, err := portable.PlanForOp(op.Multiply, 256, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Backend != "portable" {
		t.Fatalf("portable-restricted tuner picked %v", plan)
	}
}

// TestCalibrateMeasuresEveryBackend: the quick protocol must produce one
// curve per registered backend plus the default-curve alias.
func TestCalibrateMeasuresEveryBackend(t *testing.T) {
	p := Calibrate(1, true)
	if !p.Valid() {
		t.Fatal("calibration invalid")
	}
	for _, name := range gemm.Names() {
		curve := p.Machine.BackendGemm[name]
		if len(curve) == 0 {
			t.Fatalf("no calibration curve for backend %q", name)
		}
		for _, s := range curve {
			if s.SeqGFLOPS <= 0 || s.ParGFLOPS <= 0 {
				t.Fatalf("backend %q: non-positive sample %+v", name, s)
			}
		}
	}
	if len(p.Machine.Gemm) == 0 {
		t.Fatal("default curve missing")
	}
}
