// Command perfbench is the repository's benchmark. It runs one workload
// through the public API, checks every output against the classical
// product, and prints one JSON result as its last line:
//
//	perfbench --workload square|panel|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the gated end-to-end metrics (every
// end-to-end metric is printed above it); with --trace 1 it holds the
// per-layer metrics, measured by timing calls into each layer
// from outside (a timing leaf backend, core.Stats, Batcher.Stats, the tuner
// and stream packages). run.sh builds it from the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"fastmm/internal/gemm"
)

// gated lists the end-to-end metrics BENCHMARK.json bounds; the result
// line of an untraced run carries exactly these. The absolute timings
// (gflops_eff, gflops_classical, latency_ms_p50, latency_ms_tail,
// throughput_mps) are printed above it but not gated: on the shared 2-vCPU
// host the benchmark was sized on, the machine's own speed drifted by up
// to 27% between sets of runs half an hour apart, beyond any bound a gate
// may use, while the paired ratio speedup_vs_classical, which compares
// neighbours in time, stayed within 4%.
var gated = []string{"speedup_vs_classical", "setup_s", "workspace_mb", "allocs_per_mult", "ok_frac"}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "square, panel or serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "seconds of timed work")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, d time.Duration, traced bool) error {
	if _, ok := fixedShapes[workload]; !ok && workload != "serve" {
		return fmt.Errorf("unknown workload %q (want square, panel or serve)", workload)
	}
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	// No tuner may read or write a cache outside the working directory.
	if err := os.Setenv("FASTMM_TUNE_CACHE", "off"); err != nil {
		return err
	}
	var tb *timedBackend
	// base lists the leaf backends every untraced tuner enumerates; nil
	// means every registered one, which in a traced run would include the
	// timing backend.
	var base []string
	if traced {
		// A traced run splits its time between the untraced loop and the
		// traced one, which it compares for trace.overhead_frac.
		d /= 2
		base = gemm.Names()
		tb = registerTimed(4096)
	}
	fp := takeFingerprint()
	raw, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", raw)

	e2e, layers := newReport(), newReport()
	var t tally
	if s, ok := fixedShapes[workload]; ok {
		fr, err := measureFixed(s, seed, d)
		if err != nil {
			return err
		}
		fr.endToEnd(e2e)
		if traced {
			if err := fixedLayers(layers, fr, tb, base, d, fp); err != nil {
				return err
			}
		}
		t = fr.tally
	} else {
		sr, err := measureServe(seed, d, base)
		if err != nil {
			return err
		}
		defer sr.close()
		sr.endToEnd(e2e)
		if traced {
			if err := serveLayers(layers, sr, tb, base, seed, d, fp); err != nil {
				return err
			}
		}
		t = sr.totalTally()
	}

	out := map[string]metric{}
	for _, name := range gated {
		out[name] = e2e.values[name]
	}
	if traced {
		out = layers.values
	}
	for _, rep := range []*report{e2e, layers} {
		for _, name := range rep.names {
			m := rep.values[name]
			fmt.Printf("%-28s %14.6g %-8s %s\n", name, m.Value, m.Unit, rep.notes[name])
		}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}
	raw, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
