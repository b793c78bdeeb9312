package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastmm"
	"fastmm/internal/mat"
)

const (
	// serveSetupReps is how many batchers a serve run sets up; setup_s is
	// the median. Serve set-up is short, so it takes more repetitions.
	serveSetupReps = 5
	clients        = 2 // closed-loop client goroutines
	outstanding    = 4 // requests each client keeps in flight
	// window is the length of one fast phase of the serve loop; each is
	// followed by a classical phase over the requests it completed.
	window     = time.Second
	minWindows = 5
)

// setupServe builds a batcher and warms every (op, class) of the mix with
// its first call, plus the first classical call per class, returning the
// batcher and the seconds those took. The outputs are checked into t; the
// checks are not timed.
func setupServe(reqs []*request, backends []string, t *tally) (*fastmm.Batcher, float64, error) {
	start := time.Now()
	b, err := fastmm.NewBatcher(batchOptions(backends))
	if err != nil {
		return nil, 0, err
	}
	secs := time.Since(start).Seconds()
	seen := map[string]bool{}
	for _, r := range reqs {
		key := fmt.Sprintf("%v %v", r.op, r.class)
		if seen[key] {
			continue
		}
		seen[key] = true
		start = time.Now()
		err := b.Do(r.fast())
		secs += time.Since(start).Seconds()
		t.record("setup batch "+key, err, r.C, r.ref, r.scale)
		start = time.Now()
		r.classical(r.C, workers)
		secs += time.Since(start).Seconds()
		t.record("setup classical "+key, nil, r.C, r.ref, r.scale)
	}
	return b, secs, nil
}

// slot is one request of a client's share of the mix and its state while
// in flight: cur is the jittered corner submitted, over the headers hdr.
// The callback stamps the completion time and hands the slot index back to
// its client; a slot is in flight at most once at a time.
type slot struct {
	req       *request
	cur       request
	hdr       [4]mat.Dense
	submitted time.Time
	done      time.Time
	ticket    *fastmm.BatchTicket
	busy      bool
	opts      fastmm.SubmitOpts
}

// served is one completed submission: a request and its corner.
type served struct {
	req  *request
	m, n int
}

// client is one closed-loop caller. It owns its slots, so no two clients
// ever write the same output matrix.
type client struct {
	slots    []*slot
	next     int        // position of the next slot to submit, cyclically
	rng      *rand.Rand // draws the corner of each submission
	finished chan int   // slot indices whose request resolved
	tally    tally
	latency  []float64 // milliseconds, submit to completion
	served   []served  // submissions completed in the current window
	scratch  []float64 // classical outputs of the classical phase
	cls      request   // the classical phase's current corner
	clsHdr   [4]mat.Dense
}

func newClients(reqs []*request, seed int64) []*client {
	cs := make([]*client, clients)
	maxElems := 0
	for _, r := range reqs {
		if r.m*r.n > maxElems {
			maxElems = r.m * r.n
		}
	}
	for i := range cs {
		cs[i] = &client{
			rng: rand.New(rand.NewSource(seed + int64(i) + 1)),
			// The channel holds at most one index per request in flight.
			finished: make(chan int, outstanding),
			scratch:  make([]float64, maxElems),
		}
	}
	for i, r := range reqs {
		c := cs[i%clients]
		s := &slot{req: r}
		idx := len(c.slots)
		s.opts.Callback = func(error) {
			s.done = time.Now()
			c.finished <- idx
		}
		c.slots = append(c.slots, s)
	}
	return cs
}

// submit sends the next idle slot in cyclic order.
func (c *client) submit(b *fastmm.Batcher) error {
	for {
		s := c.slots[c.next]
		c.next = (c.next + 1) % len(c.slots)
		if s.busy {
			continue
		}
		s.busy = true
		m, n := s.req.jitterDims(c.rng)
		s.req.sub(&s.cur, &s.hdr, m, n)
		s.submitted = time.Now()
		tk, err := b.SubmitRequest(s.cur.fast(), s.opts)
		if err != nil {
			return err
		}
		s.ticket = tk
		return nil
	}
}

// fastPhase keeps outstanding requests in flight until the deadline, then
// drains them. Every output is checked as it completes.
func (c *client) fastPhase(b *fastmm.Batcher, deadline time.Time) error {
	c.served = c.served[:0]
	inflight := 0
	for ; inflight < outstanding; inflight++ {
		if err := c.submit(b); err != nil {
			return err
		}
	}
	for inflight > 0 {
		s := c.slots[<-c.finished]
		inflight--
		s.busy = false
		err := s.ticket.Wait()
		c.latency = append(c.latency, float64(s.done.Sub(s.submitted))/1e6)
		if c.tally.record("batched "+s.req.op.String(), err, s.cur.C, s.cur.ref, s.cur.scale) {
			c.served = append(c.served, served{s.req, s.cur.m, s.cur.n})
		}
		if time.Now().Before(deadline) {
			if err := c.submit(b); err != nil {
				return err
			}
			inflight++
		}
	}
	return nil
}

// classicalPhase multiplies the submissions of the last fast phase with
// the sequential classical kernel, taking them from the shared list work
// (next is the shared position), and checks each output. The classical
// outputs go to the client's scratch, so any client may take any item.
func (c *client) classicalPhase(work []served, next *atomic.Int64) {
	for i := next.Add(1) - 1; i < int64(len(work)); i = next.Add(1) - 1 {
		sv := work[i]
		r := &c.cls
		sv.req.sub(r, &c.clsHdr, sv.m, sv.n)
		dst := mat.FromSlice(r.m, r.n, c.scratch[:r.m*r.n])
		r.classical(dst, 1)
		c.tally.record("classical "+r.op.String(), nil, dst, r.ref, r.scale)
	}
}

// servePhase runs f on every client concurrently and returns the wall time
// until all are done.
func servePhase(cs []*client, f func(*client) error) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// serveLoop is the timed result of the serve loop.
type serveLoop struct {
	fastGF, classicalGF, speedup, rate []float64 // one value per window
	completed                          int
	mallocs                            uint64
	numGC                              uint32
}

// fastWindow runs one fast window on b: every client keeps outstanding
// requests in flight until the window ends, then drains. It returns the
// window's wall time, the submissions it completed and the heap
// allocations and collections during it.
func fastWindow(b *fastmm.Batcher, cs []*client) (time.Duration, []served, uint64, uint32, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, gc0 := ms.Mallocs, ms.NumGC
	end := time.Now().Add(window)
	wall, err := servePhase(cs, func(c *client) error { return c.fastPhase(b, end) })
	runtime.ReadMemStats(&ms)
	var work []served
	for _, c := range cs {
		work = append(work, c.served...)
	}
	return wall, work, ms.Mallocs - m0, ms.NumGC - gc0, err
}

func workFlops(work []served) float64 {
	f := 0.0
	for _, sv := range work {
		f += eq3Flops(sv.m, sv.req.k, sv.n)
	}
	return f
}

// runServe alternates fast windows with classical phases in which the
// client goroutines share out the same completed submissions, until d has
// passed and at least minWindows windows ran.
func runServe(b *fastmm.Batcher, cs []*client, d time.Duration) (serveLoop, error) {
	var out serveLoop
	deadline := time.Now().Add(d)
	for len(out.rate) < minWindows || time.Now().Before(deadline) {
		fastWall, work, mallocs, gcs, err := fastWindow(b, cs)
		if err != nil {
			return out, err
		}
		out.mallocs += mallocs
		out.numGC += gcs
		var next atomic.Int64
		clsWall, _ := servePhase(cs, func(c *client) error { c.classicalPhase(work, &next); return nil })
		flops := workFlops(work)
		out.completed += len(work)
		out.fastGF = append(out.fastGF, flops/fastWall.Seconds()/1e9)
		out.classicalGF = append(out.classicalGF, flops/clsWall.Seconds()/1e9)
		out.speedup = append(out.speedup, clsWall.Seconds()/fastWall.Seconds())
		out.rate = append(out.rate, float64(len(work))/fastWall.Seconds())
	}
	return out, nil
}

// serveRun is everything one serve run measured.
type serveRun struct {
	reqs    []*request
	batcher *fastmm.Batcher
	clients []*client
	setups  []float64
	// setupWorkspace is the batcher's retained workspace once every class
	// ran once. The loop adds an arena to a class whenever two of its
	// requests happen to run at once, so the retained bytes after the loop
	// depend on timing.
	setupWorkspace int64
	loop           serveLoop
	tally          tally
}

// measureServe generates the mix, sets a batcher over the given leaf
// backends (nil for all) up serveSetupReps times and runs the timed loop
// for d on the last one.
func measureServe(seed int64, d time.Duration, backends []string) (*serveRun, error) {
	reqs, err := serveInputs(seed)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{reqs: reqs}
	for _, r := range reqs {
		r.setReference(workers)
	}
	for i := 0; i < serveSetupReps; i++ {
		b, secs, err := setupServe(reqs, backends, &sr.tally)
		if err != nil {
			return nil, err
		}
		if sr.batcher != nil {
			sr.batcher.Close()
		}
		sr.batcher = b
		sr.setups = append(sr.setups, secs)
	}
	sr.setupWorkspace = sr.batcher.WorkspaceRetained()
	sr.clients = newClients(reqs, seed)
	sr.loop, err = runServe(sr.batcher, sr.clients, d)
	return sr, err
}

func (sr *serveRun) close() { sr.batcher.Close() }

// endToEnd reports the run's end-to-end metrics.
func (sr *serveRun) endToEnd(rep *report) {
	var lat []float64
	for _, c := range sr.clients {
		lat = append(lat, c.latency...)
	}
	l := sr.loop
	rep.setTimed("gflops_eff", summarize(l.fastGF), "GFLOPS")
	rep.setTimed("gflops_classical", summarize(l.classicalGF), "GFLOPS")
	rep.setTimed("speedup_vs_classical", summarize(l.speedup), "ratio")
	ms := summarize(lat)
	rep.setTimed("latency_ms_p50", ms, "ms")
	rep.setTail("latency_ms_tail", ms, "ms")
	rep.setTimed("throughput_mps", summarize(l.rate), "1/s")
	rep.setTimed("setup_s", summarize(sr.setups), "s")
	rep.set("workspace_mb", float64(sr.setupWorkspace)/1e6, "MB",
		fmt.Sprintf("Batcher.WorkspaceRetained after set-up (%.4g MB after the loop)", float64(sr.batcher.WorkspaceRetained())/1e6))
	rep.set("allocs_per_mult", float64(l.mallocs)/float64(l.completed), "count",
		fmt.Sprintf("runtime.MemStats.Mallocs delta over %d batched multiplies (clients included)", l.completed))
	sr.totalTally().report(rep)
}

// totalTally merges the run's set-up tally with every client's.
func (sr *serveRun) totalTally() tally {
	t := sr.tally
	for _, c := range sr.clients {
		t.merge(c.tally)
	}
	return t
}
