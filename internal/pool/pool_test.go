package pool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		var hits [57]atomic.Int32
		Run(len(hits), workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestRunErrStopsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := RunErr(context.Background(), 1000, 4, func(i int) error {
		if i == 3 {
			return boom
		}
		if i > 500 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Most of the tail must have been skipped once the error registered.
	if after.Load() > 900 {
		t.Fatalf("%d late items ran after the failure", after.Load())
	}
}

func TestRunErrHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunErr(ctx, 10, 2, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("work ran under a canceled context")
	}
}

func TestSlicePoolRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1000, 1 << 20} {
		s := Uint32s(n)
		if len(s) != n {
			t.Fatalf("Uint32s(%d): len %d", n, len(s))
		}
		if cap(s) < n {
			t.Fatalf("Uint32s(%d): cap %d < n", n, cap(s))
		}
		for i := range s {
			s[i] = uint32(i)
		}
		PutUint32s(s)
		r := Uint32s(n)
		if len(r) != n || cap(r) < n {
			t.Fatalf("reuse Uint32s(%d): len %d cap %d", n, len(r), cap(r))
		}
		PutUint32s(r)
	}
	// A slice put with a non-power-of-two capacity must only be served to
	// requests its capacity can hold.
	odd := make([]uint32, 0, 100) // filed under bucket 6 (64)
	PutUint32s(odd)
	got := Uint32s(64)
	if cap(got) < 64 {
		t.Fatalf("bucketed slice too small: cap %d", cap(got))
	}
	PutBytes(Bytes(512))
	PutFloat32s(Float32s(512))
	if Bytes(0) != nil || Uint32s(-1) != nil {
		t.Fatal("zero-length get should be nil")
	}
}

// TestSlabBound pins what the slab pools recycle: nothing above
// MaxSlabBytes, whatever its element type, and not a slab whose capacity
// merely rounds down to a bucket under the bound.
func TestSlabBound(t *testing.T) {
	for _, n := range []int{1, 1000, MaxSlabBytes / 8, MaxSlabBytes/8 + 1, MaxSlabBytes + 1} {
		if s := Slab[float64](n); len(s) != n {
			t.Fatalf("Slab[float64](%d): len %d", n, len(s))
		}
	}
	// Dropped slabs never come back; held ones may (sync.Pool promises
	// nothing), so only the negative is asserted.
	samePlace := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }
	big := Slab[byte](MaxSlabBytes + 1)
	if cap(big) != MaxSlabBytes+1 {
		t.Errorf("a slab above the bound has cap %d, want exactly its length: it is not headed for a bucket", cap(big))
	}
	PutSlab(big)
	odd := make([]byte, MaxSlabBytes+MaxSlabBytes/2) // would file under the 256 KiB bucket
	PutSlab(odd)
	for i := 0; i < 8; i++ {
		if s := Slab[byte](MaxSlabBytes); samePlace(s, big) || samePlace(s, odd) {
			t.Fatal("a slab above the bound was recycled")
		}
	}
	PutSlab([]float32(nil))

	PoisonSlabs(true)
	defer PoisonSlabs(false)
	f := Slab[float32](10)
	b := Slab[byte](10)
	PutSlab(f)
	PutSlab(b)
	if f[9] != slabPoison || b[9] != slabPoison {
		t.Errorf("released slabs hold %v and %#x, want the poison pattern", f[9], b[9])
	}
}

// settle waits for the goroutine count to fall back to base: a worker
// that has signalled its WaitGroup still takes a moment to exit.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		runtime.Gosched()
	}
}

// TestPanicReachesCaller pins that a panic in a worker is re-raised on
// the calling goroutine, where a recover can catch it, only after every
// worker has returned, and with no goroutine left behind. Items 0 and 1
// wait for each other, so they run on two goroutines at once: across the
// rounds item 1 panics both on a spawned worker and on the caller.
func TestPanicReachesCaller(t *testing.T) {
	entries := map[string]func(do func(i int)){
		"Run": func(do func(i int)) { Run(4, 2, do) },
		"RunErr": func(do func(i int)) {
			_ = RunErr(context.Background(), 4, 2, func(i int) error { do(i); return nil })
		},
		"Fork": func(do func(i int)) { Fork(4, 2, func(_, i int) { do(i) }) },
	}
	for name, run := range entries {
		for round := 0; round < 20; round++ {
			base := runtime.NumGoroutine()
			var running atomic.Int32
			var both sync.WaitGroup
			both.Add(2)
			got := func() (v any) {
				defer func() { v = recover() }()
				run(func(i int) {
					running.Add(1)
					defer running.Add(-1)
					if i < 2 {
						both.Done()
						both.Wait()
					}
					if i == 1 {
						panic("boom")
					}
				})
				return nil
			}()
			p, ok := got.(*Panic)
			if !ok || p.Value != "boom" {
				t.Fatalf("%s: recovered %v, want the worker's panic", name, got)
			}
			if !strings.Contains(string(p.Stack), "pool.TestPanicReachesCaller") {
				t.Fatalf("%s: the re-raised panic lost the stack it was raised on:\n%s", name, p.Stack)
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("%s: re-raised while %d items were still running", name, n)
			}
			settle(t, base)
		}
	}
}

// TestNestedPanicKeepsItsStack pins that a panic passing through a fork
// nested in another reaches the caller once wrapped, with the stack of
// the goroutine that raised it.
func TestNestedPanicKeepsItsStack(t *testing.T) {
	got := func() (v any) {
		defer func() { v = recover() }()
		Fork(2, 2, func(_, i int) {
			Fork(2, 2, func(_, j int) {
				if i == 1 && j == 1 {
					raiseBoom()
				}
			})
		})
		return nil
	}()
	p, ok := got.(*Panic)
	if !ok || p.Value != "boom" {
		t.Fatalf("recovered %#v, want the inner panic's value wrapped once", got)
	}
	if !strings.Contains(string(p.Stack), "pool.raiseBoom") {
		t.Fatalf("the re-raised panic lost the stack it was raised on:\n%s", p.Stack)
	}
}

func raiseBoom() { panic("boom") }

// TestPanicStopsClaims pins that a panic stops the pool from starting
// further items.
func TestPanicStopsClaims(t *testing.T) {
	var ran atomic.Int32
	func() {
		defer func() { _ = recover() }()
		Fork(1000, 2, func(_, i int) {
			ran.Add(1)
			if i == 0 {
				panic("boom")
			}
		})
	}()
	if n := ran.Load(); n > 500 {
		t.Fatalf("%d items ran after the first panicked", n)
	}
}

// TestForkWorkerIndex pins Fork's worker numbering: every index visited
// once, w within [0, workers), and w == 0 on the calling goroutine alone
// when one worker runs everything.
func TestForkWorkerIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		var hits [41]atomic.Int32
		var bad atomic.Int32
		Fork(len(hits), workers, func(w, i int) {
			if w < 0 || w >= workers {
				bad.Add(1)
			}
			hits[i].Add(1)
		})
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: a worker index out of range", workers)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// TestWorkerBudget pins the budget a context carries and how a pool is
// shared.
func TestWorkerBudget(t *testing.T) {
	if got := Workers(context.Background()); got != 1 {
		t.Fatalf("a bare context carries %d workers, want 1", got)
	}
	if got := Workers(WithWorkers(context.Background(), 0)); got != 1 {
		t.Fatalf("a budget of 0 reads as %d, want 1", got)
	}
	if got := Workers(WithWorkers(context.Background(), 3)); got != 3 {
		t.Fatalf("budget reads as %d, want 3", got)
	}
	for _, c := range []struct{ workers, n, want int }{{2, 1, 2}, {2, 4, 1}, {8, 3, 2}, {3, 0, 3}} {
		if got := Share(c.workers, c.n); got != c.want {
			t.Fatalf("Share(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	if got := Share(0, 1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Share(0, 1) = %d, want GOMAXPROCS", got)
	}
}
