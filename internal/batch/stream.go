package batch

import (
	"fmt"

	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
)

// Stream is a same-shape pipeline over a Batcher: a fixed ⟨m,k,n⟩ warm entry
// plus two staging slots that double-buffer operand packing against
// execution. Push copies ("packs") the operands into the next slot's
// retained staging buffers and schedules execution asynchronously, so the
// copy of item i+1 — and whatever work the caller does to produce it —
// overlaps the recursion of item i, the cross-call analogue of BLIS-style
// fused packing. Because Push returns once the operands are staged, the
// caller may immediately reuse or overwrite A and B; only C must survive
// until Flush (or until a later Push has cycled past the item's slot).
//
// A Stream is a single-goroutine object: Push and Flush must not be called
// concurrently (use several Streams, or the Batcher's Submit, for that).
// With Options.NoPipeline set, Push degrades to a synchronous run
// through the same warm entry and no staging copies are made.
type Stream struct {
	b       *Batcher
	m, k, n int
	e       *warmEntry
	pipe    bool
	slots   [2]streamSlot
	cur     int
	err     error // first deferred execution error, surfaced by Push/Flush
}

// streamSlot owns one pipeline stage: lazily allocated staging buffers and
// the ticket of the execution currently reading them.
type streamSlot struct {
	a, b   *mat.Dense
	ticket *Ticket
}

// Stream builds a pipeline for one exact shape, warming (tuning on first
// touch) the shape class at full width — a stream executes one item at a
// time, so each item gets the whole-budget treatment. The warm-up registers
// in the outstanding accounting like every other entry-building path, so it
// cannot tune and install retained state into a batcher whose Close already
// returned.
func (b *Batcher) Stream(m, k, n int) (*Stream, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("batch: invalid stream shape %d×%d×%d", m, k, n)
	}
	if err := b.beginSync(); err != nil {
		return nil, err
	}
	defer b.doneOutstanding(nil)
	e, _, err := b.entryFor(op.Multiply, m, k, n, 1)
	if err != nil {
		return nil, err
	}
	return &Stream{b: b, m: m, k: k, n: n, e: e, pipe: !b.opts.NoPipeline}, nil
}

// Push schedules C = A·B. Operand dimensions must match the stream's shape
// exactly. In pipelined mode the current item completes asynchronously, so a
// non-nil return reports a *previous* item's failure; each deferred failure
// is surfaced exactly once (by the first Push or Flush to see it), and the
// stream keeps accepting work after one — except ErrClosed, which reports
// that *this* item was not scheduled.
//
// Push registers in the outstanding accounting (beginSync's closed re-check
// under submitMu) before any entry work: either the registration lands
// before Close's drain starts — and Close waits for this push, staged
// execution included — or Push observes closed and neither executes nor
// builds (tunes, installs retained state for) a warm entry. Checking closed
// without the lock would let a push slip past Close's drain.
func (s *Stream) Push(C, A, B *mat.Dense) error {
	if A.Rows() != s.m || A.Cols() != s.k || B.Rows() != s.k || B.Cols() != s.n ||
		C.Rows() != s.m || C.Cols() != s.n {
		return fmt.Errorf("batch: stream is %d×%d×%d, got C %d×%d = A %d×%d · B %d×%d",
			s.m, s.k, s.n, C.Rows(), C.Cols(), A.Rows(), A.Cols(), B.Rows(), B.Cols())
	}
	if err := s.b.beginSync(); err != nil {
		return err
	}
	// A long-lived stream must not pin its warm entry against the pool's
	// budgets: if the entry was evicted (LRU pressure from other classes),
	// re-resolve it through the pool so it is re-installed and its retained
	// arenas are counted against Options.Workspace again. Executing through
	// the stale pointer instead would keep the arenas warm while invisible
	// to the byte accounting.
	e, err := s.b.liveEntry(s.e, s.m, s.k, s.n)
	if err != nil {
		s.b.doneOutstanding(nil)
		return err
	}
	s.e = e
	// Stream items sample like every other path; the entry is warm by
	// construction (the ctor or liveEntry resolved it just above).
	rec := s.b.sample(op.Multiply, s.m, s.k, s.n, "stream")
	if rec != nil {
		rec.WarmHit = true
	}
	if !s.pipe {
		s.b.executing.Add(1)
		err := s.b.timedRun(s.e, op.Request{Op: op.Multiply, C: C, A: A, B: B}, rec)
		s.b.ring.Publish(rec)
		s.b.executing.Add(-1)
		s.b.met.streamDone.Add(1)
		s.b.doneOutstanding(nil) // the error is returned to this caller alone
		return err
	}
	slot := &s.slots[s.cur]
	s.cur = 1 - s.cur
	if slot.ticket != nil { // reclaim: the slot's previous execution must end
		if err := slot.ticket.Wait(); err != nil && s.err == nil {
			s.err = err
		}
		slot.ticket = nil
	}
	if slot.a == nil {
		slot.a = mat.New(s.m, s.k)
		slot.b = mat.New(s.k, s.n)
	}
	slot.a.CopyFrom(A) // the packing stage: overlaps the other slot's execution
	slot.b.CopyFrom(B)
	slot.ticket = s.b.goRun(s.e, C, slot.a, slot.b, rec)
	err = s.err
	s.err = nil
	return err
}

// Flush drains the pipeline: it blocks until every pushed item has executed
// and returns the first not-yet-surfaced error among them. The stream stays
// usable after Flush.
func (s *Stream) Flush() error {
	for i := range s.slots {
		if t := s.slots[i].ticket; t != nil {
			if err := t.Wait(); err != nil && s.err == nil {
				s.err = err
			}
			s.slots[i].ticket = nil
		}
	}
	err := s.err
	s.err = nil
	return err
}

// goRun executes one staged multiplication on its own goroutine, outside the
// submit queue (stream ordering lives in the slots), but inside the Workers
// budget. The caller (Push) already holds the outstanding registration —
// made before any entry or staging work — and the spawned goroutine
// releases it, so Close still drains active streams. Stream errors are not
// folded into Batcher.Wait's first error — the stream's own Push/Flush
// reporting owns them.
func (b *Batcher) goRun(e *warmEntry, C, A, B *mat.Dense, rec *trace.Record) *Ticket {
	t := &Ticket{done: make(chan struct{})}
	go func() {
		b.executing.Add(1)
		t.err = b.timedRun(e, op.Request{Op: op.Multiply, C: C, A: A, B: B}, rec)
		b.ring.Publish(rec)
		b.executing.Add(-1)
		b.met.streamDone.Add(1)
		close(t.done)
		b.doneOutstanding(nil)
	}()
	return t
}
