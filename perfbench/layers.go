package main

import (
	"fmt"
	"math"
	"time"

	"fastmm"
	"fastmm/internal/batch"
	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/gemm/avx"
	"fastmm/internal/mat"
	"fastmm/internal/tuner"
)

// pinnedProfile is the fixed calibration every timed tuner ranks with, so
// the plans depend only on the code, this profile and the shapes. The rates
// are those a full calibration measured on the 2-core Xeon (AVX2, FMA,
// AVX-512F) the benchmark was sized on, rounded.
func pinnedProfile() *tuner.Profile {
	simd := []costmodel.GemmSample{
		{N: 96, SeqGFLOPS: 14, ParGFLOPS: 18},
		{N: 192, SeqGFLOPS: 15, ParGFLOPS: 26},
		{N: 384, SeqGFLOPS: 15.5, ParGFLOPS: 28},
		{N: 640, SeqGFLOPS: 16, ParGFLOPS: 30},
	}
	portable := []costmodel.GemmSample{
		{N: 96, SeqGFLOPS: 1.9, ParGFLOPS: 1.9},
		{N: 192, SeqGFLOPS: 2.1, ParGFLOPS: 3.8},
		{N: 384, SeqGFLOPS: 2.0, ParGFLOPS: 3.8},
		{N: 640, SeqGFLOPS: 2.2, ParGFLOPS: 3.6},
	}
	return &tuner.Profile{
		Version: tuner.ProfileVersion,
		Machine: costmodel.Machine{
			Workers:     workers,
			Gemm:        simd,
			BackendGemm: map[string][]costmodel.GemmSample{"simd": simd, "portable": portable},
			AddSeqGBps:  11.8,
			AddParGBps:  22,
		},
	}
}

// batchOptions are the serving options of every batcher the benchmark
// builds. The tuners rank by the model only, over the pinned profile, and
// keep nothing on disk; drift re-probing is off, so no class is re-tuned
// mid-run. GrainFLOPs above every request's flop count runs each request
// at width 1, so concurrency comes from the two runners: with eight
// requests outstanding the default grain gives width 1 almost always too,
// but the rare request that starts alone would tune a second, wider entry
// at a moment that depends on timing.
func batchOptions(backends []string) fastmm.BatchOptions {
	return fastmm.BatchOptions{
		Resources:  fastmm.Resources{Workers: workers, Backends: backends},
		GrainFLOPs: math.MaxInt64,
		Drift:      fastmm.BatchDriftOptions{Disable: true},
		Tuning: tuner.Options{
			ProbeTopK:   tuner.NoProbes,
			Profile:     pinnedProfile(),
			NoDiskCache: true,
		},
	}
}

// kernelGFLOPS times the 6×8 micro-kernel on packed panels that stay in L1
// and returns the median of five rates. Without the assembly kernel it
// times the default backend on a 48×256×48 problem instead.
func kernelGFLOPS() float64 {
	const kb = 256
	ap := make([]float64, 6*kb)
	bp := make([]float64, 8*kb)
	c := make([]float64, 6*8)
	for i := range ap {
		ap[i] = 1e-3 * float64(i%7)
	}
	for i := range bp {
		bp[i] = 1e-3 * float64(i%5)
	}
	call := func() { avx.Dgemm6x8(kb, &ap[0], &bp[0], &c[0], 8) }
	flops := float64(2 * 6 * 8 * kb)
	if !avx.Supported {
		A, B, C := mat.New(48, kb), mat.New(kb, 48), mat.New(48, 48)
		be := gemm.Default()
		call = func() { gemm.Dispatch(be, C, 1, A, B, false, 1) }
		flops = float64(2 * 48 * kb * 48)
	}
	const reps = 20000
	for i := 0; i < reps/10; i++ { // warm-up
		call()
	}
	var rates []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			call()
		}
		rates = append(rates, flops*reps/time.Since(start).Seconds()/1e9)
	}
	return median(rates)
}

// planKey is one (op, gemm-equivalent shape) the tuner plans.
type planKey struct {
	op      fastmm.Op
	m, k, n int
}

// samePlan reports whether two plans run the same configuration (the
// predicted and measured times aside).
func samePlan(a, b tuner.Plan) bool {
	return a.Op == b.Op && a.Algorithm == b.Algorithm && a.Steps == b.Steps &&
		a.Backend == b.Backend && a.Parallel == b.Parallel && a.Strategy == b.Strategy &&
		a.CSE == b.CSE && a.Fused == b.Fused && a.Workers == b.Workers
}

// tunerLayer reports the tuner's metrics over the given classes at width w
// and over the given leaf backends (nil for all): cold and warm planning on
// the pinned profile, a quick calibration, and how often two fresh tuners
// with live calibration and default probing pick the same plan.
func tunerLayer(rep *report, classes []planKey, w int, backends []string) error {
	res := tuner.Resources{Workers: w, Backends: backends}
	pinned := tuner.Options{
		Resources:   res,
		ProbeTopK:   tuner.NoProbes,
		Profile:     pinnedProfile(),
		NoDiskCache: true,
	}
	tn, err := tuner.New(pinned)
	if err != nil {
		return err
	}
	var planMs []float64
	fast := 0
	for _, c := range classes {
		start := time.Now()
		p, err := tn.PlanForOp(c.op, c.m, c.k, c.n)
		if err != nil {
			return err
		}
		planMs = append(planMs, time.Since(start).Seconds()*1e3)
		if !p.IsClassical() {
			fast++
		}
	}
	const rounds = 200
	var warmUs []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for _, c := range classes {
			if _, err := tn.EntryOp(c.op, c.m, c.k, c.n); err != nil {
				return err
			}
		}
		warmUs = append(warmUs, time.Since(start).Seconds()*1e6/float64(len(classes)))
	}
	var calib []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		tuner.Calibrate(w, true)
		calib = append(calib, time.Since(start).Seconds())
	}
	var picks [2][]tuner.Plan
	for i := range picks {
		live, err := tuner.New(tuner.Options{Resources: res, NoDiskCache: true})
		if err != nil {
			return err
		}
		for _, c := range classes {
			p, err := live.PlanForOp(c.op, c.m, c.k, c.n)
			if err != nil {
				return err
			}
			picks[i] = append(picks[i], p)
		}
	}
	agree := 0
	for i := range classes {
		if samePlan(picks[0][i], picks[1][i]) {
			agree++
		}
	}
	rep.set("tuner.classes", float64(len(classes)), "count", fmt.Sprintf("(op, shape class) pairs planned at width %d", w))
	rep.set("tuner.fast_plan_share", float64(fast)/float64(len(classes)), "fraction", "classes the pinned tuner serves with a fast plan")
	rep.setTimed("tuner.plan_ms", summarize(planMs), "ms")
	rep.setTimed("tuner.warm_dispatch_us", summarize(warmUs), "us")
	rep.set("tuner.calibrate_s", summarize(calib).Median, "s", fmt.Sprintf(
		"median of %d quick calibrations at width %d over every registered backend, the timing backend included", len(calib), w))
	rep.set("tuner.plan_agreement", float64(agree)/float64(len(classes)), "fraction",
		"classes two live-calibrated, default-probing tuners plan the same way")
	return nil
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(before, after batch.Histogram) batch.Histogram {
	d := batch.Histogram{Counts: make([]int64, len(after.Counts)), Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// batchLayer reports the batcher's metrics from the change in its Stats
// between two snapshots. Only the Normal lane is used.
func batchLayer(rep *report, before, after fastmm.BatchStats) {
	lb, la := before.Lanes[fastmm.LaneNormal], after.Lanes[fastmm.LaneNormal]
	wait := summarize(histSamples(histDelta(lb.QueueWait, la.QueueWait)))
	svc := summarize(histSamples(histDelta(lb.Service, la.Service)))
	rep.setTimed("batch.queue_wait_ms_p50", wait, "ms")
	rep.setTail("batch.queue_wait_ms_tail", wait, "ms")
	rep.setTimed("batch.service_ms_p50", svc, "ms")
	rep.setTail("batch.service_ms_tail", svc, "ms")
	hits, misses := after.WarmHits-before.WarmHits, after.WarmMisses-before.WarmMisses
	hit := 0.0
	if hits+misses > 0 {
		hit = float64(hits) / float64(hits+misses)
	}
	rep.set("batch.warm_hit_rate", hit, "fraction", fmt.Sprintf("%d hits, %d misses", hits, misses))
	busy := after.BusySeconds - before.BusySeconds
	flops := after.EffectiveGFLOPS*after.BusySeconds - before.EffectiveGFLOPS*before.BusySeconds
	rep.set("batch.gflops_busy", flops/busy, "GFLOPS", fmt.Sprintf("Eq. (3) GFLOPS over %.3gs of execution time", busy))
}
