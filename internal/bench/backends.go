package bench

import (
	"fmt"

	"fastmm/internal/gemm"
)

func init() {
	registerExperiment("backends", "leaf-kernel backends: per-backend gemm throughput and the SIMD-vs-portable speedup", runBackends)
}

// runBackends measures every registered leaf backend on the square gemm
// curve (the calibration's x axis), sequentially and at the configured
// worker count, and prints the simd-vs-portable speedup per size. This is
// the experiment behind the multi-backend acceptance bar: on AVX2 hardware
// the simd micro-kernel must beat the portable kernel at square sizes ≥ 512
// (builds without the AVX2 kernel register portable only, and the property
// tests in internal/gemm pin every backend's correctness against Naive).
func runBackends(cfg Config) ([]Point, error) {
	w := cfg.Workers
	out := cfg.Out
	sizes := cfg.sizes([]int{256, 512, 768, 1024})
	if cfg.Quick {
		sizes = []int{96, 192}
	}

	names := gemm.Names()
	fmt.Fprintf(out, "\nleaf backends on N×N×N (default %s):\n", gemm.Default().Name())
	for _, name := range names {
		be, err := gemm.Get(name)
		if err != nil {
			return nil, err
		}
		accel := ""
		if be.Accelerated() {
			accel = " [accelerated]"
		}
		fmt.Fprintf(out, "  %-10s pack %6.2f MiB/worker%s\n",
			name, float64(8*be.PackFloatsPerWorker())/(1<<20), accel)
	}

	var pts []Point
	rates := map[[2]interface{}]float64{} // (size, backend) → seq eff
	for _, n := range sizes {
		A, B, C := operands(n, n, n)
		for _, name := range names {
			be, err := gemm.Get(name)
			if err != nil {
				return nil, err
			}
			seq := medianTime(cfg.Trials, func() { gemm.Dispatch(be, C, 1, A, B, false, 1) })
			par := seq
			if w > 1 {
				par = medianTime(cfg.Trials, func() { gemm.Dispatch(be, C, 1, A, B, false, w) })
			}
			eff := effective(n, n, n, seq)
			rates[[2]interface{}{n, name}] = eff
			pts = append(pts,
				Point{Series: name + "-seq", X: n, P: n, Q: n, R: n, Workers: 1,
					Seconds: seq, Eff: eff, EffCore: eff},
				Point{Series: name + "-par", X: n, P: n, Q: n, R: n, Workers: w,
					Seconds: par, Eff: effective(n, n, n, par),
					EffCore: effective(n, n, n, par) / float64(w)})
		}
	}
	table(out, "per-backend classical gemm, sequential, effective GFLOPS", "eff", filterSeries(pts, "-seq"))
	if w > 1 {
		table(out, fmt.Sprintf("per-backend classical gemm, %d workers, effective GFLOPS", w), "eff", filterSeries(pts, "-par"))
	}

	for _, n := range sizes {
		p, okP := rates[[2]interface{}{n, "portable"}]
		s, okS := rates[[2]interface{}{n, "simd"}]
		if okP && okS && p > 0 {
			fmt.Fprintf(out, "  N=%-5d simd/portable speedup: %.2fx\n", n, s/p)
		}
	}
	fmt.Fprintln(out, "  acceptance bar: simd > portable at every square size ≥ 512 on AVX2 hardware")
	return pts, nil
}

func filterSeries(pts []Point, suffix string) []Point {
	var out []Point
	for _, p := range pts {
		if len(p.Series) >= len(suffix) && p.Series[len(p.Series)-len(suffix):] == suffix {
			out = append(out, p)
		}
	}
	return out
}
