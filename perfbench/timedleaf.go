package main

import (
	"sort"
	"sync/atomic"
	"time"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

// timedName is the registry name of the timing leaf backend.
const timedName = "timed"

// leafInterval is one leaf call seen by the timing backend, in
// nanoseconds since the log's origin.
type leafInterval struct{ start, end int64 }

// leafLog accumulates what the timing backend observes. The totals are
// atomic and cover every call; the interval buffer holds the calls since the
// last reset (for the union of leaf time inside one multiply) and drops
// calls beyond its capacity, counting them.
type leafLog struct {
	origin time.Time

	calls       atomic.Int64
	fusedCalls  atomic.Int64
	busyNanos   atomic.Int64 // Σ call durations
	workerNanos atomic.Int64 // Σ call duration × workers the call was given
	flops       atomic.Int64 // Σ 2mkn over the calls

	next      atomic.Int64
	intervals []leafInterval
	dropped   atomic.Int64
}

func newLeafLog(capacity int) *leafLog {
	return &leafLog{origin: time.Now(), intervals: make([]leafInterval, capacity)}
}

func (l *leafLog) since(t time.Time) int64 { return int64(t.Sub(l.origin)) }

func (l *leafLog) add(start, end int64, workers int, flops int64, fused bool) {
	if fused {
		l.fusedCalls.Add(1)
	} else {
		l.calls.Add(1)
	}
	d := end - start
	l.busyNanos.Add(d)
	l.workerNanos.Add(d * int64(workers))
	l.flops.Add(flops)
	if i := l.next.Add(1) - 1; i < int64(len(l.intervals)) {
		l.intervals[i] = leafInterval{start: start, end: end}
	} else {
		l.dropped.Add(1)
	}
}

// resetIntervals empties the interval buffer. Call it only while no leaf
// call is running.
func (l *leafLog) resetIntervals() { l.next.Store(0) }

// unionNanos is the time covered by the buffered intervals, overlaps
// counted once: the wall time during which at least one leaf was running.
// Call it only while no leaf call is running.
func (l *leafLog) unionNanos() int64 {
	n := l.next.Load()
	if n > int64(len(l.intervals)) {
		n = int64(len(l.intervals))
	}
	iv := append([]leafInterval(nil), l.intervals[:n]...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x.start, x.end, true
		case x.start <= curE:
			if x.end > curE {
				curE = x.end
			}
		default:
			total += curE - curS
			curS, curE = x.start, x.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// timedBackend wraps a leaf backend and times every call into it. It
// implements gemm.FusedBackend, so an executor with Fused set keeps running
// the fused engine through it (forwarding to the wrapped backend's
// GemmFused, or to gemm.DispatchFused's fallback when it has none).
type timedBackend struct {
	inner gemm.Backend
	log   *leafLog
}

func (b *timedBackend) Name() string               { return timedName }
func (b *timedBackend) Accelerated() bool          { return b.inner.Accelerated() }
func (b *timedBackend) PackFloatsPerWorker() int64 { return b.inner.PackFloatsPerWorker() }

func (b *timedBackend) Gemm(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int) {
	start := b.log.since(time.Now())
	b.inner.Gemm(C, alpha, A, B, accumulate, workers)
	end := b.log.since(time.Now())
	b.log.add(start, end, workers, 2*int64(A.Rows())*int64(A.Cols())*int64(B.Cols()), false)
}

func (b *timedBackend) GemmFused(dsts []gemm.Scaled, alpha float64, asrcs, bsrcs []gemm.Scaled, accumulate bool, workers int) {
	start := b.log.since(time.Now())
	if fb, ok := b.inner.(gemm.FusedBackend); ok {
		fb.GemmFused(dsts, alpha, asrcs, bsrcs, accumulate, workers)
	} else {
		gemm.DispatchFused(b.inner, dsts, alpha, asrcs, bsrcs, accumulate, workers)
	}
	end := b.log.since(time.Now())
	a, bm := asrcs[0].M, bsrcs[0].M
	b.log.add(start, end, workers, 2*int64(a.Rows())*int64(a.Cols())*int64(bm.Cols()), true)
}

// registerTimed wraps the current default backend in a timing backend and
// registers it under timedName. gemm.Default() keeps resolving to the
// wrapped backend; only executors and tuners that name timedName run
// through the wrapper. Untraced runs never call it, because a registered
// backend joins every tuner's candidate set.
func registerTimed(capacity int) *timedBackend {
	tb := &timedBackend{inner: gemm.Default(), log: newLeafLog(capacity)}
	gemm.Register(tb)
	return tb
}
