package main

import (
	"fmt"
	"time"

	"fastmm"
	"fastmm/internal/addchain"
	"fastmm/internal/mat"
)

// referenceLayers reports the two references every traced run measures:
// the micro-kernel ceiling and the triad bandwidth measured with the
// fingerprint. It returns the kernel rate.
func referenceLayers(rep *report, fp fingerprint) float64 {
	kernel := kernelGFLOPS()
	rep.set("gemm.kernel_gflops", kernel, "GFLOPS", "6x8 micro-kernel on in-L1 packed panels, median of 5")
	note := fmt.Sprintf("STREAM triad, three arrays of %d MB each (last-level cache %d MB)", fp.StreamArrayBytes>>20, fp.LLCBytes>>20)
	rep.set("stream.triad_gbps_1w", fp.TriadGBps1W, "GB/s", note)
	rep.set("stream.triad_gbps_2w", fp.TriadGBps2W, "GB/s", note)
	return kernel
}

// fixedLayers reports every per-layer metric of a square or panel run. The
// workload itself never enters the tuner or the batcher; their metrics come
// from planning its one shape and from six requests of it sent through a
// batcher.
func fixedLayers(rep *report, fr *fixedRun, tb *timedBackend, base []string, d time.Duration, fp fingerprint) error {
	kernel := referenceLayers(rep, fp)
	if err := fr.traced(rep, tb, d, kernel, fp.TriadGBps2W); err != nil {
		return err
	}
	s := fr.shape
	if err := tunerLayer(rep, []planKey{{fastmm.OpMultiply, s.m, s.k, s.n}}, workers, base); err != nil {
		return err
	}
	return fixedBatch(rep, fr, base)
}

// fixedBatch sends six requests of the workload's shape through a batcher
// over the given leaf backends, two at a time, and reports the batch layer
// from its Stats.
func fixedBatch(rep *report, fr *fixedRun, backends []string) error {
	const total, inFlight = 6, 2
	b, err := fastmm.NewBatcher(batchOptions(backends))
	if err != nil {
		return err
	}
	defer b.Close()
	r := fr.req
	fr.tally.record("batch warm-up", b.Do(r.fast()), r.C, r.ref, r.scale)
	before := b.Stats()
	outs := [inFlight]*mat.Dense{r.C, mat.New(r.m, r.n)}
	var tickets [inFlight]*fastmm.BatchTicket
	for i := 0; i < total+inFlight; i++ {
		j := i % inFlight
		if tickets[j] != nil {
			fr.tally.record("batched multiply", tickets[j].Wait(), outs[j], r.ref, r.scale)
			tickets[j] = nil
		}
		if i < total {
			if tickets[j], err = b.Submit(outs[j], r.A, r.B); err != nil {
				return err
			}
		}
	}
	batchLayer(rep, before, b.Stats())
	return nil
}

// serveLayers reports every per-layer metric of a serve run: the loop runs
// again on a batcher whose tuners may only use the timing backend, which
// the pinned profile ranks exactly like the default backend.
func serveLayers(rep *report, sr *serveRun, tb *timedBackend, base []string, seed int64, d time.Duration, fp fingerprint) error {
	kernel := referenceLayers(rep, fp)
	b, _, err := setupServe(sr.reqs, []string{timedName}, &sr.tally)
	if err != nil {
		return err
	}
	defer b.Close()
	cs := newClients(sr.reqs, seed)
	log := tb.log
	calls0, fused0 := log.calls.Load(), log.fusedCalls.Load()
	flops0, busy0, wn0 := log.flops.Load(), log.busyNanos.Load(), log.workerNanos.Load()
	before := b.Stats()
	// Fast windows alternate between the untraced batcher and the traced
	// one, so trace.overhead_frac compares neighbours in time.
	var overhead []float64
	var tracedWall time.Duration
	completed := 0
	completions := map[*request]int{}
	deadline := time.Now().Add(d)
	for i := 0; len(overhead) < minWindows || time.Now().Before(deadline); i++ {
		var rate [2]float64 // untraced, traced
		for j := 0; j < 2; j++ {
			traced := (i + j) % 2
			bj := sr.batcher
			if traced == 1 {
				bj = b
			}
			wall, work, _, _, err := fastWindow(bj, cs)
			if err != nil {
				return err
			}
			rate[traced] = float64(len(work)) / wall.Seconds()
			if traced == 1 {
				tracedWall += wall
				completed += len(work)
				for _, sv := range work {
					completions[sv.req]++
				}
			}
		}
		overhead = append(overhead, rate[0]/rate[1]-1)
	}
	after := b.Stats()
	for _, c := range cs {
		sr.tally.merge(c.tally)
	}
	n := float64(completed)
	leafBusy := float64(log.busyNanos.Load() - busy0)
	serviceBusy := (after.BusySeconds - before.BusySeconds) * 1e9
	leafGF := float64(log.flops.Load()-flops0) / leafBusy
	selfMs := (serviceBusy - leafBusy) / n / 1e6
	rep.set("gemm.leaf_gflops", leafGF, "GFLOPS", "2mkn of the leaf calls over their busy time")
	rep.set("gemm.leaf_frac_of_kernel", leafGF/kernel, "fraction", "gemm.leaf_gflops / gemm.kernel_gflops")
	rep.set("gemm.leaf_calls", float64(log.calls.Load()-calls0)/n, "count", "explicit leaf calls per multiply, counted by the timing backend")
	rep.set("gemm.fused_calls", float64(log.fusedCalls.Load()-fused0)/n, "count", "fused leaf calls per multiply, counted by the timing backend")
	rep.set("gemm.leaf_share", leafBusy/serviceBusy, "fraction", "leaf busy time over the batcher's execution time (every plan runs at width 1)")
	rep.set("core.self_ms", selfMs, "ms", "execution time outside the leaves per multiply")
	rep.set("core.self_share", 1-leafBusy/serviceBusy, "fraction", "1 - gemm.leaf_share")

	var bytes, predicted float64
	taskPlans := 0
	seen := map[string]bool{}
	for _, r := range sr.reqs {
		p, err := b.PlanForOp(r.op, r.m, r.k, r.n)
		if err != nil {
			return err
		}
		if !p.IsClassical() {
			strat, err := parseStrategy(p.Strategy)
			if err != nil {
				return err
			}
			// Priced at the class representative: the corners average a
			// little less.
			pb, err := planAddBytes(p.Algorithm, strat, p.CSE, p.Fused, p.Steps, r.m, r.k, r.n)
			if err != nil {
				return err
			}
			bytes += pb * float64(completions[r])
		}
		if key := fmt.Sprintf("%v %v", r.op, r.class); !seen[key] {
			seen[key] = true
			predicted += float64(p.WorkspaceBytes)
			if p.Workers > 1 && (p.Parallel == "bfs" || p.Parallel == "hybrid") {
				taskPlans++
			}
		}
	}
	addGB := bytes / (selfMs * n / 1e3) / 1e9
	rep.set("core.add_gbps_computed", addGB, "GB/s",
		fmt.Sprintf("%.4g MB of S/T/M traffic outside the leaves (cost model; AᵗA priced as the general product) over the self time", bytes/1e6))
	rep.set("core.add_frac_of_stream", addGB/fp.TriadGBps2W, "fraction", "core.add_gbps_computed / stream.triad_gbps_2w")
	rep.set("core.worker_util", float64(log.workerNanos.Load()-wn0)/(workers*float64(tracedWall)), "fraction",
		"Σ(leaf busy × leaf workers) / (Workers × fast-window wall)")
	rep.set("core.tasks_spawned", 0, "count",
		fmt.Sprintf("not observable through the batcher; %d of %d class plans fan out tasks", taskPlans, len(seen)))
	rep.set("core.workspace_mb_predicted", predicted/1e6, "MB", "Σ of the class plans' WorkspaceBytes")
	var classes []planKey
	for _, c := range serveClasses {
		classes = append(classes, planKey{c.op, c.m, c.k, c.n})
	}
	if err := tunerLayer(rep, classes, 1, base); err != nil {
		return err
	}
	batchLayer(rep, before, after)
	rep.set("workspace.retained_mb", float64(sr.batcher.WorkspaceRetained())/1e6, "MB", "Batcher.WorkspaceRetained")
	rep.set("runtime.gc_per_100_mults", 100*float64(sr.loop.numGC)/float64(sr.loop.completed), "count",
		"collections per 100 batched multiplies in the untraced fast windows")
	rep.setTimed("trace.overhead_frac", summarize(overhead), "fraction")
	return nil
}

// parseStrategy maps a plan's strategy name back to the strategy.
func parseStrategy(s string) (addchain.Strategy, error) {
	for _, st := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}
