package main

import (
	"fmt"
	"runtime"
	"time"

	"fastmm"
	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/costmodel"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// minSamples keeps every timed loop long enough for a tail percentile with
// minBeyond samples beyond it.
const minSamples = minBeyond + 1

// fixedLoop is the timed result of a square or panel loop.
type fixedLoop struct {
	fast, classical, ratio []float64 // seconds, seconds, classical/fast per pair
	mallocs                uint64    // heap allocations across the fast calls
	numGC                  uint32    // collections during the loop
}

// buildFixed builds the workload's executor on the named leaf backend (""
// for the default), counting scheduler events into stats when non-nil.
func buildFixed(s fixedShape, backend string, stats *core.Stats) (*fastmm.Executor, error) {
	opts := s.opts
	opts.Backend = backend
	opts.Stats = stats
	return fastmm.NewExecutor(s.algorithm, opts)
}

// setupFixed builds the executor and makes its first multiply and the first
// classical multiply, returning the executor and the seconds those took.
// The outputs are checked into t; the checks are not timed.
func setupFixed(s fixedShape, r *request, t *tally) (*fastmm.Executor, float64, error) {
	start := time.Now()
	e, err := buildFixed(s, "", nil)
	if err != nil {
		return nil, 0, err
	}
	err = e.Multiply(r.C, r.A, r.B)
	secs := time.Since(start).Seconds()
	t.record("setup fast multiply", err, r.C, r.ref, r.scale)
	start = time.Now()
	r.classical(r.C, workers)
	secs += time.Since(start).Seconds()
	t.record("setup classical multiply", nil, r.C, r.ref, r.scale)
	return e, secs, nil
}

// runFixedLoop alternates timed fast and classical multiplies on the same
// inputs for the given duration (and at least minSamples pairs), swapping
// which goes first each pair so neither always follows the other. Every
// output is checked into t outside the timed interval.
func runFixedLoop(e *fastmm.Executor, r *request, d time.Duration, t *tally) fixedLoop {
	var out fixedLoop
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	fast := func() float64 {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		err := e.Multiply(r.C, r.A, r.B)
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		out.mallocs += ms.Mallocs - m0
		t.record("fast multiply", err, r.C, r.ref, r.scale)
		return secs
	}
	classical := func() float64 {
		start := time.Now()
		r.classical(r.C, workers)
		secs := time.Since(start).Seconds()
		t.record("classical multiply", nil, r.C, r.ref, r.scale)
		return secs
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || len(out.fast) < minSamples; i++ {
		var tf, tc float64
		if i%2 == 0 {
			tf = fast()
			tc = classical()
		} else {
			tc = classical()
			tf = fast()
		}
		out.fast = append(out.fast, tf)
		out.classical = append(out.classical, tc)
		out.ratio = append(out.ratio, tc/tf)
	}
	runtime.ReadMemStats(&ms)
	out.numGC = ms.NumGC - gc0
	return out
}

// fixedRun is everything one square or panel run measured.
type fixedRun struct {
	shape  fixedShape
	req    *request
	exec   *fastmm.Executor
	setups []float64
	loop   fixedLoop
	tally  tally
}

// measureFixed generates the inputs, sets the workload up setupReps times
// and runs the timed loop for d.
func measureFixed(s fixedShape, seed int64, d time.Duration) (*fixedRun, error) {
	fr := &fixedRun{shape: s, req: fixedInput(s, seed)}
	fr.req.setReference(workers)
	for i := 0; i < setupReps; i++ {
		e, secs, err := setupFixed(s, fr.req, &fr.tally)
		if err != nil {
			return nil, err
		}
		fr.exec = e
		fr.setups = append(fr.setups, secs)
	}
	fr.loop = runFixedLoop(fr.exec, fr.req, d, &fr.tally)
	return fr, nil
}

// endToEnd reports the run's end-to-end metrics.
func (fr *fixedRun) endToEnd(rep *report) {
	flops := fr.req.flops()
	fast, cls := summarize(fr.loop.fast), summarize(fr.loop.classical)
	n := len(fr.loop.fast)
	rep.set("gflops_eff", flops/fast.Median/1e9, "GFLOPS",
		fmt.Sprintf("Eq. (3) flops over the median of %d fast multiplies (q1 %.4gs, q3 %.4gs)", n, fast.Q1, fast.Q3))
	rep.set("gflops_classical", flops/cls.Median/1e9, "GFLOPS",
		fmt.Sprintf("Eq. (3) flops over the median of %d classical multiplies (q1 %.4gs, q3 %.4gs)", n, cls.Q1, cls.Q3))
	rep.setTimed("speedup_vs_classical", summarize(fr.loop.ratio), "ratio")
	ms := summarize(scaled(fr.loop.fast, 1e3))
	rep.setTimed("latency_ms_p50", ms, "ms")
	rep.setTail("latency_ms_tail", ms, "ms")
	rep.set("throughput_mps", 1/fast.Median, "1/s", "fast multiplies per second at the median latency")
	rep.setTimed("setup_s", summarize(fr.setups), "s")
	rep.set("workspace_mb", float64(fr.exec.WorkspaceRetained())/1e6, "MB", "Executor.WorkspaceRetained after the loop")
	rep.set("allocs_per_mult", float64(fr.loop.mallocs)/float64(n), "count",
		fmt.Sprintf("runtime.MemStats.Mallocs delta over %d fast multiplies", n))
	fr.tally.report(rep)
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// traced alternates multiplies on the untraced executor with multiplies on
// one whose leaves run through the timing backend, for d (and at least
// minSamples pairs), and reports the gemm and core layers from the traced
// ones, with the kernel rate and the triad bandwidth as the references.
// Pairing the two makes trace.overhead_frac immune to drift in the
// machine's speed.
func (fr *fixedRun) traced(rep *report, tb *timedBackend, d time.Duration, kernel, triad float64) error {
	s, r := fr.shape, fr.req
	var st core.Stats
	e, err := buildFixed(s, timedName, &st)
	if err != nil {
		return err
	}
	fr.tally.record("traced warm-up", e.Multiply(r.C, r.A, r.B), r.C, r.ref, r.scale)
	st.Reset()
	log := tb.log
	calls0, flops0, busy0 := log.calls.Load()+log.fusedCalls.Load(), log.flops.Load(), log.busyNanos.Load()
	var self, share, util, overhead []float64
	untraced := func() time.Duration {
		start := time.Now()
		err := fr.exec.Multiply(r.C, r.A, r.B)
		wall := time.Since(start)
		fr.tally.record("untraced multiply", err, r.C, r.ref, r.scale)
		return wall
	}
	traced := func() time.Duration {
		log.resetIntervals()
		w0 := log.workerNanos.Load()
		start := time.Now()
		err := e.Multiply(r.C, r.A, r.B)
		wall := time.Since(start)
		union := float64(log.unionNanos())
		w := float64(wall)
		self = append(self, (w-union)/1e6)
		share = append(share, union/w)
		util = append(util, float64(log.workerNanos.Load()-w0)/(workers*w))
		fr.tally.record("traced multiply", err, r.C, r.ref, r.scale)
		return wall
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || len(overhead) < minSamples; i++ {
		var tu, tt time.Duration
		if i%2 == 0 {
			tu, tt = untraced(), traced()
		} else {
			tt, tu = traced(), untraced()
		}
		overhead = append(overhead, float64(tt)/float64(tu)-1)
	}
	if dropped := log.dropped.Load(); dropped > 0 {
		return fmt.Errorf("timing backend dropped %d leaf intervals", dropped)
	}
	n := float64(len(self))
	calls := log.calls.Load() + log.fusedCalls.Load() - calls0
	leafGF := float64(log.flops.Load()-flops0) / float64(log.busyNanos.Load()-busy0)
	snap := st.Snapshot()
	selfMs := summarize(self)

	rep.set("gemm.leaf_gflops", leafGF, "GFLOPS", fmt.Sprintf("2mkn of %d leaf calls over their busy time", calls))
	rep.set("gemm.leaf_frac_of_kernel", leafGF/kernel, "fraction", "gemm.leaf_gflops / gemm.kernel_gflops")
	rep.set("gemm.leaf_calls", float64(snap.LeafCalls)/n, "count", "core.Stats.LeafCalls per multiply")
	rep.set("gemm.fused_calls", float64(snap.FusedCalls)/n, "count", "core.Stats.FusedCalls per multiply")
	rep.setTimed("gemm.leaf_share", summarize(share), "fraction")
	rep.setTimed("core.self_ms", selfMs, "ms")
	rep.setTimed("core.self_share", summarize(complement(share)), "fraction")
	bytes, err := planAddBytes(s.algorithm, s.opts.Strategy, s.opts.CSE, s.opts.Fused, s.opts.Steps, s.m, s.k, s.n)
	if err != nil {
		return err
	}
	addGB := bytes / (selfMs.Median / 1e3) / 1e9
	rep.set("core.add_gbps_computed", addGB, "GB/s",
		fmt.Sprintf("%.4g MB of S/T/M traffic outside the leaves (cost model) over the median core.self_ms", bytes/1e6))
	rep.set("core.add_frac_of_stream", addGB/triad, "fraction", "core.add_gbps_computed / stream.triad_gbps_2w")
	rep.setTimed("core.worker_util", summarize(util), "fraction")
	rep.set("core.tasks_spawned", float64(snap.TasksSpawned)/n, "count", "core.Stats.TasksSpawned per multiply")
	rep.set("core.workspace_mb_predicted", float64(fr.exec.WorkspaceBytes(s.m, s.k, s.n))/1e6, "MB", "Executor.WorkspaceBytes")
	rep.set("workspace.retained_mb", float64(fr.exec.WorkspaceRetained())/1e6, "MB", "Executor.WorkspaceRetained")
	rep.set("runtime.gc_per_100_mults", 100*float64(fr.loop.numGC)/float64(len(fr.loop.fast)), "count",
		"collections per 100 fast multiplies in the untraced loop (the interleaved classical calls included)")
	rep.setTimed("trace.overhead_frac", summarize(overhead), "fraction")
	return nil
}

func complement(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 1 - x
	}
	return out
}

// planAddBytes is the cost model's S/T/M traffic of a fast plan that runs
// outside leaf calls: every level but a fused last one, whose operand sums
// and scatter happen inside the fused leaf. Dimensions are rounded down to
// whole base-case blocks, as the model ignores peeling.
func planAddBytes(algorithm string, strat addchain.Strategy, cse, fused bool, steps, m, k, n int) (float64, error) {
	a, err := catalog.Get(algorithm)
	if err != nil {
		return 0, err
	}
	bm, bk, bn := 1, 1, 1
	for i := 0; i < steps; i++ {
		bm, bk, bn = bm*a.Base.M, bk*a.Base.K, bn*a.Base.N
	}
	m, k, n = m/bm*bm, k/bk*bk, n/bn*bn
	if fused {
		steps--
	}
	if m == 0 || k == 0 || n == 0 || steps == 0 {
		return 0, nil
	}
	model, err := costmodel.New(a, strat, cse)
	if err != nil {
		return 0, err
	}
	c, err := model.Evaluate(m, k, n, steps)
	if err != nil {
		return 0, err
	}
	return (c.Reads + c.Writes) * 8, nil
}
