package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastmm/internal/batch"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

func init() {
	registerExperiment("batch", "batched dispatch: warm Batcher vs per-call tuned Do vs per-call Multiply across batch sizes and shape families, plus the priority-lane/deadline/width-policy scenario", runBatch)
}

// runBatch measures what the batched dispatcher buys in the serving regime:
// streams of independent same-class multiplications. Three dispatch styles
// multiply identical work — a warm Batcher (one tuning decision and one warm
// executor per shape class, inter-multiply parallelism under one Workers
// budget), per-call tuned Do (warm tuner dispatch but full-width execution and
// per-call synchronization), and per-call Multiply (executor built and
// verified per call, the naive API user) — across batch sizes × the paper's
// three shape families. The batcher's steady-state allocations per item ride
// along in the points (exact, unlike shared-runner timings). A final
// headline row reproduces the acceptance target: a same-shape batch of 64 at
// the largest square size, batcher vs tuned Do in a loop.
func runBatch(cfg Config) ([]Point, error) {
	w := cfg.Workers
	out := cfg.Out

	batchSizes := []int{1, 8, 64, 512}
	n, k0, headN := cfg.scaled(384), cfg.scaled(128), cfg.scaled(768)
	if cfg.Quick {
		batchSizes = []int{1, 8, 32}
		n, k0, headN = 192, 64, 256
	}

	prof := tuner.Calibrate(w, cfg.Quick)
	bt, err := batch.New(batch.Options{
		Resources: batch.Resources{Workers: w},
		Tuning:    tuner.Options{Profile: prof, NoDiskCache: true},
	})
	if err != nil {
		return nil, err
	}
	defer bt.Close()
	tn, err := tuner.New(tuner.Options{Resources: tuner.Resources{Workers: w}, Profile: prof, NoDiskCache: true})
	if err != nil {
		return nil, err
	}
	fixedAlg := catalog.MustGet("strassen")

	families := []struct {
		name    string
		p, q, r int
	}{
		{"square", n, n, n},
		{"outer", n, k0, n},
		{"panel", n, n, k0},
	}

	fmt.Fprintf(out, "\nbatched dispatch (%d workers): items/s by batch size; batcher vs per-call auto vs per-call multiply\n", w)

	var all []Point
	for _, fam := range families {
		ring := newOperandRing(fam.p, fam.q, fam.r, maxIntSlice(batchSizes))
		// Warm every dispatcher once so each cell measures steady state.
		if err := timeBatcher(bt, ring, min(8, maxIntSlice(batchSizes))); err != nil {
			return nil, err
		}
		if err := ring.eachSeq(2, tn.Do); err != nil {
			return nil, err
		}

		var pts []Point
		for _, size := range batchSizes {
			var allocs float64
			bsecs, err := func() (float64, error) {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				err := timeBatcher(bt, ring, size)
				secs := time.Since(start).Seconds()
				runtime.ReadMemStats(&ms1)
				allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(size)
				return secs, err
			}()
			if err != nil {
				return nil, err
			}

			start := time.Now()
			if err := ring.eachSeq(size, tn.Do); err != nil {
				return nil, err
			}
			asecs := time.Since(start).Seconds()

			start = time.Now()
			err = ring.eachSeq(size, func(r op.Request) error {
				e, err := core.New(fixedAlg, core.Options{Resources: core.Resources{Workers: w}, Steps: 1, Parallel: core.DFS})
				if err != nil {
					return err
				}
				return e.Do(r)
			})
			if err != nil {
				return nil, err
			}
			psecs := time.Since(start).Seconds()

			for _, s := range []struct {
				series string
				secs   float64
				allocs float64
			}{
				{"batcher", bsecs, allocs},
				{"auto-loop", asecs, 0},
				{"percall-loop", psecs, 0},
			} {
				per := s.secs / float64(size)
				eff := effective(fam.p, fam.q, fam.r, per)
				pts = append(pts, Point{Series: s.series, X: size,
					P: fam.p, Q: fam.q, R: fam.r, Workers: w,
					Seconds: per, Eff: eff, EffCore: eff / float64(w), Allocs: s.allocs})
			}
			fmt.Fprintf(out, "  %-7s %dx%dx%d  batch %-4d  batcher %8.1f items/s (%.1f allocs/op)  %.2fx vs auto, %.2fx vs per-call\n",
				fam.name, fam.p, fam.q, fam.r, size,
				float64(size)/bsecs, allocs, asecs/bsecs, psecs/bsecs)
		}
		table(out, fmt.Sprintf("batched dispatch, %s %dx%dx%d, effective GFLOPS per item", fam.name, fam.p, fam.q, fam.r), "eff", pts)
		all = append(all, pts...)
	}

	// Headline acceptance row: same-shape batch of 64 at the big square
	// size — the regime the batcher exists for.
	const headBatch = 64
	ring := newOperandRing(headN, headN, headN, headBatch)
	if err := timeBatcher(bt, ring, 8); err != nil { // warm the class
		return nil, err
	}
	if err := ring.eachSeq(2, tn.Do); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := timeBatcher(bt, ring, headBatch); err != nil {
		return nil, err
	}
	bsecs := time.Since(start).Seconds()
	start = time.Now()
	if err := ring.eachSeq(headBatch, tn.Do); err != nil {
		return nil, err
	}
	asecs := time.Since(start).Seconds()
	for _, s := range []struct {
		series string
		secs   float64
	}{{"batcher-head", bsecs}, {"auto-head", asecs}} {
		per := s.secs / headBatch
		eff := effective(headN, headN, headN, per)
		all = append(all, Point{Series: s.series, X: headBatch,
			P: headN, Q: headN, R: headN, Workers: w,
			Seconds: per, Eff: eff, EffCore: eff / float64(w)})
	}
	fmt.Fprintf(out, "  headline: %d × %d^3 same-shape batch — batcher %.2fx throughput vs per-call tuned Do at %d workers\n",
		headBatch, headN, asecs/bsecs, w)
	fmt.Fprintln(out, "  acceptance bar: ≥ 1.3x on the full-size multi-worker run (the win is inter-multiply parallelism; a 1-worker run only measures dispatch overhead)")

	lanePts, err := runLaneScenario(cfg, bt)
	if err != nil {
		return nil, err
	}
	return append(all, lanePts...), nil
}

// runLaneScenario measures the server-grade submit path: sparse High-lane
// (interactive) traffic against a saturating Low-lane flood, deadline'd Low
// items that must expire without occupying a runner, and the width-policy
// burst. The gating number for cmd/benchtrend is the high-lane latency
// ratio (under flood vs alone) — a within-run ratio, robust to runner speed
// the way auto-vs-best is.
func runLaneScenario(cfg Config, bt *batch.Batcher) ([]Point, error) {
	w, out := cfg.Workers, cfg.Out
	laneN := cfg.scaled(256)
	highItems, expireItems := 8, 16
	if cfg.Quick {
		laneN, highItems, expireItems = 128, 4, 8
	}
	ring := newOperandRing(laneN, laneN, laneN, 8)
	if err := timeBatcher(bt, ring, 4); err != nil { // warm the class
		return nil, err
	}

	highLatency := func() (float64, error) {
		var total time.Duration
		for i := 0; i < highItems; i++ {
			C, A, B := ring.item(i)
			start := time.Now()
			tk, err := bt.SubmitRequest(op.Request{C: C, A: A, B: B}, batch.SubmitOpts{Lane: batch.LaneHigh})
			if err != nil {
				return 0, err
			}
			if err := tk.Wait(); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total.Seconds() / float64(highItems), nil
	}

	aloneSecs, err := highLatency()
	if err != nil {
		return nil, err
	}

	// The Low-lane flood keeps a sliding window of 2×Workers bulk items
	// outstanding so the runners are saturated and the Low lane always has
	// a backlog; strict priority means High items overtake all of it.
	stop := make(chan struct{})
	floodErr := make(chan error, 1)
	go func() {
		window := 2 * w
		if window < 4 {
			window = 4
		}
		tickets := make([]*batch.Ticket, window)
		cs := make([]*mat.Dense, window)
		for i := range cs {
			cs[i] = mat.New(laneN, laneN)
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				floodErr <- nil
				return
			default:
			}
			if tk := tickets[i%window]; tk != nil {
				if err := tk.Wait(); err != nil {
					floodErr <- err
					return
				}
			}
			_, A, B := ring.item(i)
			tk, err := bt.SubmitRequest(op.Request{C: cs[i%window], A: A, B: B}, batch.SubmitOpts{Lane: batch.LaneLow})
			if err != nil {
				floodErr <- err
				return
			}
			tickets[i%window] = tk
		}
	}()

	loadedSecs, err := highLatency()
	if err != nil {
		close(stop)
		return nil, err
	}

	// Deadline'd Low items behind the flood's backlog: the deadline is a
	// quarter of one item's service time, so by the time a runner works
	// through the Low backlog ahead of them it has passed — they must
	// resolve with ErrDeadlineExceeded in microseconds instead of occupying
	// the runner.
	expiry := time.Duration(aloneSecs * float64(time.Second) / 4)
	if expiry < 10*time.Microsecond {
		expiry = 10 * time.Microsecond
	}
	var expired, rejected atomic.Int64
	var cbWg sync.WaitGroup
	for i := 0; i < expireItems; i++ {
		cbWg.Add(1)
		C := mat.New(laneN, laneN)
		_, A, B := ring.item(i)
		_, err := bt.SubmitRequest(op.Request{C: C, A: A, B: B}, batch.SubmitOpts{
			Lane:     batch.LaneLow,
			Deadline: time.Now().Add(expiry),
			Callback: func(err error) {
				if errors.Is(err, batch.ErrDeadlineExceeded) {
					expired.Add(1)
				}
				cbWg.Done()
			},
		})
		if errors.Is(err, batch.ErrAdmissionDenied) {
			// Admission shed the item at submit: no callback will ever fire.
			// That is the intended outcome for doomed deadline'd work behind
			// the flood's backlog — count it alongside queue-side expiries.
			rejected.Add(1)
			cbWg.Done()
			continue
		}
		if err != nil {
			close(stop)
			return nil, err
		}
	}
	cbWg.Wait()
	close(stop)
	if err := <-floodErr; err != nil {
		return nil, err
	}
	if err := bt.Wait(); err != nil {
		return nil, err
	}

	// Width-policy burst: Workers×4 items submitted at once — exactly the
	// shape of the pre-fix starvation, where enqueue-time load counting ran
	// every executing multiply at ~1/4 of its fair width. Info-only trend
	// series (throughput depends on runner core count).
	burstItems := 4 * w
	start := time.Now()
	if err := timeBatcher(bt, ring, burstItems); err != nil {
		return nil, err
	}
	burstSecs := time.Since(start).Seconds()

	var pts []Point
	for _, s := range []struct {
		series string
		secs   float64
	}{
		{"lane-high-alone", aloneSecs},
		{"lane-high", loadedSecs},
		{"burst-width", burstSecs / float64(burstItems)},
	} {
		eff := effective(laneN, laneN, laneN, s.secs)
		pts = append(pts, Point{Series: s.series, X: laneN, P: laneN, Q: laneN, R: laneN,
			Workers: w, Seconds: s.secs, Eff: eff, EffCore: eff / float64(w)})
	}
	pts = append(pts, Point{Series: "lane-low-expired", X: expireItems,
		P: laneN, Q: laneN, R: laneN, Workers: w, Seconds: float64(expired.Load())})
	pts = append(pts, Point{Series: "lane-low-rejected", X: expireItems,
		P: laneN, Q: laneN, R: laneN, Workers: w, Seconds: float64(rejected.Load())})

	fmt.Fprintf(out, "  lanes (%d^3): high-lane latency %.1fms alone -> %.1fms under low-lane flood (%.2fx, gated in benchtrend)\n",
		laneN, aloneSecs*1e3, loadedSecs*1e3, loadedSecs/aloneSecs)
	fmt.Fprintf(out, "  deadlines: %d/%d deadline'd low-lane items shed (%d admission-rejected at submit, %d expired in queue) without occupying a runner\n",
		expired.Load()+rejected.Load(), expireItems, rejected.Load(), expired.Load())
	fmt.Fprintf(out, "  width policy: %d-item burst drained at %.1f items/s (width from executing multiplies, not queue depth)\n",
		burstItems, float64(burstItems)/burstSecs)

	st := bt.Stats()
	fmt.Fprintf(out, "  stats: warm hit rate %.0f%%, %.1f effective GFLOPS over %.2fs busy, backends %v\n",
		100*st.WarmHitRate(), st.EffectiveGFLOPS, st.BusySeconds, st.Backends)
	return pts, nil
}

// operandRing cycles a few operand pairs and a bounded ring of destinations
// so a 512-item batch does not allocate 512 result matrices; timeBatcher's
// sliding window keeps concurrent in-flight items off the same C.
type operandRing struct {
	as, bs []*mat.Dense
	cs     []*mat.Dense
}

func newOperandRing(p, q, r, maxBatch int) *operandRing {
	const opSets = 4
	ring := &operandRing{}
	rng := rand.New(rand.NewSource(int64(p)*1_000_003 + int64(q)*1_009 + int64(r)))
	for i := 0; i < opSets; i++ {
		A, B := mat.New(p, q), mat.New(q, r)
		A.FillRandom(rng)
		B.FillRandom(rng)
		ring.as = append(ring.as, A)
		ring.bs = append(ring.bs, B)
	}
	nc := maxBatch
	if nc > 64 {
		nc = 64
	}
	for i := 0; i < nc; i++ {
		ring.cs = append(ring.cs, mat.New(p, r))
	}
	return ring
}

func (r *operandRing) item(i int) (C, A, B *mat.Dense) {
	return r.cs[i%len(r.cs)], r.as[i%len(r.as)], r.bs[i%len(r.bs)]
}

// eachSeq runs size multiplications back to back through f (the per-call
// dispatch styles).
func (r *operandRing) eachSeq(size int, do func(op.Request) error) error {
	for i := 0; i < size; i++ {
		C, A, B := r.item(i)
		if err := do(op.Request{C: C, A: A, B: B}); err != nil {
			return err
		}
	}
	return nil
}

// timeBatcher submits size items and waits for the batch to drain. Items
// reuse the ring's destinations, so submission slides a window of the ring's
// width: an item waits for the previous user of its C before submitting,
// keeping Submit's "C untouched until the Ticket resolves" contract even on
// machines with more in-flight capacity than the ring has destinations.
func timeBatcher(bt *batch.Batcher, r *operandRing, size int) error {
	window := len(r.cs)
	pending := make([]*batch.Ticket, window)
	for i := 0; i < size; i++ {
		if t := pending[i%window]; t != nil {
			if err := t.Wait(); err != nil {
				return err
			}
		}
		C, A, B := r.item(i)
		t, err := bt.Submit(C, A, B)
		if err != nil {
			return err
		}
		pending[i%window] = t
	}
	return bt.Wait()
}

func maxIntSlice(vs []int) int {
	m := vs[0]
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
