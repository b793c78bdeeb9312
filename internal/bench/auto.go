package bench

import (
	"fmt"
	"time"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

func init() {
	registerExperiment("auto", "autotuner: tuned fastmm.Do vs best/worst fixed (algorithm, steps, scheduler) per shape family", runAuto)
}

// runAuto evaluates the autotuning dispatcher the way the paper evaluates
// algorithms: against the best and worst hand-picked fixed configuration on
// each shape family (square, outer-product ⟨n,k,n⟩ with k≪n, and panel
// ⟨n,n,k⟩ with k≪n). A dispatcher that tracks the best fixed choice across
// all three families demonstrates the claim of Figs. 4–6 — no single fixed
// choice does. The warm-dispatch overhead (the cost of the tuner's shape lookup
// on a tuned shape) is reported too; it must stay in single-digit
// microseconds for tuned dispatch to be a drop-in replacement.
func runAuto(cfg Config) ([]Point, error) {
	w := cfg.Out
	workers := cfg.Workers

	fixedAlgs := []string{"strassen", "winograd", "fast424", "fast322", "fast433"}
	stepsList := []int{1, 2}
	scheds := []core.Parallel{core.DFS, core.Hybrid}
	if workers <= 1 {
		scheds = []core.Parallel{core.Sequential}
	}
	k0 := cfg.scaled(256)
	panels := []struct {
		family string
		shape  func(int) (int, int, int)
		sizes  []int
	}{
		{"square NxNxN", square, cfg.sizes([]int{512, 768})},
		{"outer NxKxN", outer(k0), cfg.sizes([]int{768, 1280})},
		{"panel NxNxK", panel(k0), cfg.sizes([]int{768, 1280})},
	}
	if cfg.Quick {
		fixedAlgs = fixedAlgs[:2]
		stepsList = []int{1}
		scheds = scheds[:1]
		k0 = 64
		panels = []struct {
			family string
			shape  func(int) (int, int, int)
			sizes  []int
		}{
			{"square NxNxN", square, []int{192}},
			{"outer NxKxN", outer(k0), []int{192}},
			{"panel NxNxK", panel(k0), []int{192}},
		}
	}

	// One calibration for the whole experiment; quick protocol in Quick
	// mode so the smoke tests stay cheap.
	prof := tuner.Calibrate(workers, cfg.Quick)
	tn, err := tuner.New(tuner.Options{Resources: tuner.Resources{Workers: workers}, Profile: prof, NoDiskCache: true})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "\nautotuner vs fixed configurations (%d workers; fixed grid: %v × steps %v × %v + classical)\n",
		workers, fixedAlgs, stepsList, schedNames(scheds))

	var all []Point
	for _, pan := range panels {
		var pts []Point
		for _, n := range pan.sizes {
			p, q, r := pan.shape(n)
			A, B, C := operands(p, q, r)

			bestSecs, worstSecs := -1.0, -1.0
			bestLabel, worstLabel := "", ""
			consider := func(label string, secs float64) {
				if bestSecs < 0 || secs < bestSecs {
					bestSecs, bestLabel = secs, label
				}
				if worstSecs < 0 || secs > worstSecs {
					worstSecs, worstLabel = secs, label
				}
			}
			consider(fmt.Sprintf("classical/%dw", workers), classicalTime(cfg, C, A, B, workers))
			for _, name := range fixedAlgs {
				a := catalog.MustGet(name)
				for _, steps := range stepsList {
					for _, sched := range scheds {
						e, err := core.New(a, core.Options{
							Steps: steps, Parallel: sched,
							Resources: core.Resources{Workers: workers},
							Strategy:  addchain.WriteOnce,
						})
						if err != nil {
							return nil, err
						}
						secs := medianTime(cfg.Trials, func() {
							if err := e.Multiply(C, A, B); err != nil {
								panic(err)
							}
						})
						consider(fmt.Sprintf("%s/s%d/%v", name, steps, sched), secs)
					}
				}
			}

			// First touch tunes the shape (ranking + probes) without a
			// final multiplication, so tuneSecs is pure tuning overhead;
			// the steady-state number is the warm, cache-hit path.
			tuneStart := time.Now()
			plan, err := tn.PlanForOp(op.Multiply, p, q, r)
			if err != nil {
				return nil, err
			}
			tuneSecs := time.Since(tuneStart).Seconds()
			autoSecs := medianTime(cfg.Trials, func() {
				if err := tn.Do(op.Request{C: C, A: A, B: B}); err != nil {
					panic(err)
				}
			})

			const dispatchCalls = 1000
			dispatchStart := time.Now()
			for i := 0; i < dispatchCalls; i++ {
				if _, err := tn.PlanForOp(op.Multiply, p, q, r); err != nil {
					return nil, err
				}
			}
			dispatchMicros := time.Since(dispatchStart).Seconds() / dispatchCalls * 1e6

			for _, s := range []struct {
				series string
				secs   float64
			}{
				{"auto", autoSecs},
				{"best-fixed", bestSecs},
				{"worst-fixed", worstSecs},
			} {
				eff := effective(p, q, r, s.secs)
				pts = append(pts, Point{Series: s.series, X: n, P: p, Q: q, R: r,
					Workers: workers, Seconds: s.secs, Eff: eff, EffCore: eff / float64(workers)})
			}
			fmt.Fprintf(w, "  %-14s n=%-5d auto %v → %.1f%% of best fixed (%s; worst %s), tune cost %.0fms, warm dispatch %.2fµs\n",
				pan.family, n, plan, 100*bestSecs/autoSecs, bestLabel, worstLabel, tuneSecs*1e3, dispatchMicros)
		}
		table(w, fmt.Sprintf("autotuner, %s, effective GFLOPS", pan.family), "eff", pts)
		all = append(all, pts...)
	}
	fmt.Fprintln(w, "  acceptance bar: auto ≥ 90% of best fixed on every family; warm dispatch < 5µs")
	return all, nil
}

// panel is the ⟨n,n,k⟩ shape family with k≪n: a large square output from a
// short inner dimension (the transpose regime of the outer-product family).
func panel(k int) func(int) (int, int, int) {
	return func(n int) (int, int, int) { return n, n, k }
}

func schedNames(scheds []core.Parallel) []string {
	out := make([]string, len(scheds))
	for i, s := range scheds {
		out[i] = s.String()
	}
	return out
}
