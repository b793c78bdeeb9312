package batch

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// streamKey is the warm-pool key a stream of the given shape resolves to.
func (b *Batcher) streamKey(m, k, n int) entryKey {
	return entryKey{class: tuner.ClassOf(m, k, n), workers: b.widthFor(m, k, n, 1)}
}

func (b *Batcher) hasEntry(key entryKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.entries[key]
	return ok
}

// TestStreamReresolvesEvictedEntry is the eviction-pinning regression test:
// a Stream must not keep executing through a warm entry after the pool
// evicted it. With MaxEntries=1, touching another class evicts the stream's
// entry; the next Push must re-resolve (re-installing the class in the pool)
// instead of using the stale pointer. On the pre-fix code the entry never
// reappears and this test fails.
func TestStreamReresolvesEvictedEntry(t *testing.T) {
	opts := testOptions(1)
	opts.MaxEntries = 1
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const m, k, n = 96, 96, 96
	s, err := b.Stream(m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	key := b.streamKey(m, k, n)
	if !b.hasEntry(key) {
		t.Fatal("stream creation must install its class entry")
	}
	A, B := randMat(m, k, 1), randMat(k, n, 2)
	C := mat.New(m, n)
	if err := s.Push(C, A, B); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Another class pushes the stream's entry out of the 1-entry pool.
	A2, B2 := randMat(160, 160, 3), randMat(160, 160, 4)
	if err := b.Do(op.Request{C: mat.New(160, 160), A: A2, B: B2}); err != nil {
		t.Fatal(err)
	}
	if b.hasEntry(key) {
		t.Fatal("test setup: the stream's entry should have been evicted")
	}

	// Post-eviction pushes must go through a re-resolved, pool-accounted
	// entry — not the stale one.
	if err := s.Push(C, A, B); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !b.hasEntry(key) {
		t.Fatal("stream kept executing through the evicted entry instead of re-resolving it")
	}
	checkProduct(t, C, A, B)
}

// TestStreamEvictionByteBudget is the same regression against the Workspace
// byte budget: once the stream's (fast-plan, arena-retaining) entry is
// evicted, further stream traffic must re-enter the pool so its retained
// bytes are counted against Options.Workspace again.
func TestStreamEvictionByteBudget(t *testing.T) {
	opts := testOptions(1)
	opts.Workspace = 1 // any retained workspace at all evicts down to the MRU entry
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const m, k, n = 256, 256, 256
	p, err := b.PlanForOp(op.Multiply, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsClassical() {
		t.Skip("profile picked a classical plan; no retained workspace to pin")
	}
	s, err := b.Stream(m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	key := b.streamKey(m, k, n)
	A, B := randMat(m, k, 5), randMat(k, n, 6)
	C := mat.New(m, n)
	if err := s.Push(C, A, B); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A second fast-plan class exceeds the 1-byte budget and evicts the
	// stream's entry.
	A2, B2 := randMat(320, 320, 7), randMat(320, 320, 8)
	if err := b.Do(op.Request{C: mat.New(320, 320), A: A2, B: B2}); err != nil {
		t.Fatal(err)
	}
	if b.hasEntry(key) {
		t.Skip("eviction did not hit the stream's class (plan retained no bytes)")
	}

	if err := s.Push(C, A, B); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !b.hasEntry(key) {
		t.Fatal("post-eviction stream traffic is invisible to the Workspace budget")
	}
	checkProduct(t, C, A, B)
}

// TestStreamPushCloseRace hammers concurrent Push against Close under the
// race detector: once Close returns, no push may schedule work anymore (the
// pre-fix goRun checked closed before Close's drain, then scheduled after
// it), so outstanding must be exactly zero at that instant and stay there.
func TestStreamPushCloseRace(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		b, err := New(testOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		const n = 64
		s, err := b.Stream(n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		A, B := randMat(n, n, int64(iter)), randMat(n, n, int64(iter+100))
		cs := [4]*mat.Dense{mat.New(n, n), mat.New(n, n), mat.New(n, n), mat.New(n, n)}

		var pushed atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				err := s.Push(cs[i%len(cs)], A, B)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("push error: %v", err)
					return
				}
				pushed.Add(1)
			}
		}()
		for pushed.Load() < 2 { // let the pipeline actually start
			runtime.Gosched()
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		// Close drained Wait; with the submitMu handshake no later push can
		// have scheduled work, so the outstanding count is pinned at zero.
		b.outMu.Lock()
		out := b.outstanding
		b.outMu.Unlock()
		if out != 0 {
			t.Fatalf("iter %d: %d executions outstanding after Close returned", iter, out)
		}
		wg.Wait()
		if err := s.Flush(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("flush after close: %v", err)
		}
	}
}

// TestSemaphoreWideNotStarvedByNarrowStream: a full-budget waiter queued
// first must be granted before any of a stream of width-1 acquisitions that
// arrive behind it — FIFO means narrow traffic cannot starve wide work.
func TestSemaphoreWideNotStarvedByNarrowStream(t *testing.T) {
	var s wsem
	s.free = 4
	s.acquire(1) // a narrow holder keeps the pool short of the full budget

	wideDone := make(chan struct{})
	go func() { s.acquire(4); close(wideDone) }()
	waitWaiters := func(want int) {
		for deadline := time.Now().Add(2 * time.Second); ; {
			s.mu.Lock()
			got := s.waiters.Len()
			s.mu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d queued waiters", want)
			}
			runtime.Gosched()
		}
	}
	waitWaiters(1) // the wide acquisition is at the queue front

	const narrows = 8
	var narrowGot atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < narrows; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.acquire(1)
			narrowGot.Add(1)
			s.release(1)
		}()
	}
	waitWaiters(1 + narrows) // the narrow stream queues behind it (3 tokens are free!)

	if got := narrowGot.Load(); got != 0 {
		t.Fatalf("%d narrow acquisitions jumped the FIFO queue", got)
	}
	s.release(1) // 4 free: the wide waiter must be served first
	select {
	case <-wideDone:
	case <-time.After(2 * time.Second):
		t.Fatal("full-budget waiter starved behind width-1 stream")
	}
	if got := narrowGot.Load(); got != 0 {
		t.Fatalf("%d narrow acquisitions passed before the wide waiter", got)
	}
	s.release(4) // now the narrow stream drains in order
	wg.Wait()
	if got := narrowGot.Load(); got != narrows {
		t.Fatalf("only %d/%d narrow acquisitions completed", got, narrows)
	}
}

// TestFlopsForSaturates pins the overflow clamp of the width policy's flop
// product: huge-but-representable shapes saturate at MaxInt64 instead of
// wrapping (the old 2*m*k*n wrapped to ~0 and granted width 1).
func TestFlopsForSaturates(t *testing.T) {
	if got := flopsFor(64, 64, 64); got != 2*64*64*64 {
		t.Errorf("flopsFor(64,64,64) = %d, want %d", got, 2*64*64*64)
	}
	huge := 1 << 31
	if got := flopsFor(huge, huge, huge); got != math.MaxInt64 {
		t.Errorf("flopsFor(huge) = %d, want MaxInt64", got)
	}
	if got := flopsFor(0, 64, 64); got != 0 {
		t.Errorf("flopsFor with a zero dim = %d, want 0", got)
	}
	if got := satMul64(math.MaxInt64, 2); got != math.MaxInt64 {
		t.Errorf("satMul64(MaxInt64, 2) = %d, want MaxInt64", got)
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 1023: 512, 1024: 1024}
	for v, want := range cases {
		if got := floorPow2(v); got != want {
			t.Errorf("floorPow2(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestWidthForEdgeCases pins the degenerate corners of the width policy: a
// grain cap that rounds to zero, a load exceeding the Workers budget, and a
// non-positive load all degrade to width 1, never 0 or negative.
func TestWidthForEdgeCases(t *testing.T) {
	b, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cases := []struct {
		name                string
		m, k, n, load, want int
	}{
		{"grain cap rounds to zero", 8, 8, 8, 1, 1},
		{"load exceeds Workers", 768, 768, 768, 20, 1},
		{"zero load treated as one", 768, 768, 768, 0, 8},
		{"negative load treated as one", 768, 768, 768, -3, 8},
		{"tiny problem under heavy load", 8, 8, 8, 100, 1},
		// 2·m·k·n overflows int64 for these absurd-but-representable
		// shapes; the saturating flop product must read "enormous" (full
		// fair share), not wrap to a value that starves the multiply.
		{"flop product would overflow", 1 << 21, 1 << 21, 1 << 21, 1, 8},
		{"overflow under load still splits", 1 << 21, 1 << 21, 1 << 21, 2, 4},
	}
	for _, c := range cases {
		if got := b.widthFor(c.m, c.k, c.n, c.load); got != c.want {
			t.Errorf("%s: widthFor(%d,%d,%d, load=%d) = %d, want %d",
				c.name, c.m, c.k, c.n, c.load, got, c.want)
		}
	}
}
