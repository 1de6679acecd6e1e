// Package pool provides the bounded fork-join shared by the streaming slab
// codec, the multi-field batch API, the brick store and the stages of one
// QoZ compression. Every entry point runs do(0..n-1) with at most
// `workers` goroutines (<=0 selects GOMAXPROCS), the caller's among them,
// and degrades to a plain loop when one worker suffices.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Run executes do(0..n-1), collecting nothing; per-item outcomes are the
// callback's business. A panic in do is re-raised on the caller.
func Run(n, workers int, do func(i int)) {
	Fork(n, workers, func(_, i int) { do(i) })
}

// Fork executes do(w, i) for i in 0..n-1, where w in [0, workers) names the
// goroutine running the item (0 is the caller), so do can keep scratch per
// worker rather than per item. Items are claimed in increasing order. A
// panic in do stops further claims; once every worker has returned it is
// re-raised on the caller as a *Panic carrying the first panic's value and
// the stack it was raised on.
func Fork(n, workers int, do func(w, i int)) {
	fork(nil, n, workers, func(w, i int) error {
		do(w, i)
		return nil
	})
}

// RunErr executes do(0..n-1), stopping early on the first error or context
// cancellation and returning that error. A panic in do is re-raised on the
// caller, as in Fork.
func RunErr(ctx context.Context, n, workers int, do func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return fork(ctx, n, workers, func(_, i int) error { return do(i) })
}

// fork is the one engine behind Run, Fork and RunErr; a nil ctx is never
// cancelled.
func fork(ctx context.Context, n, workers int, do func(w, i int) error) error {
	cancelled := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if err := cancelled(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := cancelled(); err != nil {
				return err
			}
			if err := do(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool // set by the first failure: claim nothing more
		mu       sync.Mutex
		firstErr error
		first    *Panic
	)
	work := func(w int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if first == nil {
					first, _ = v.(*Panic) // raised by a fork nested in do
					if first == nil {
						first = &Panic{Value: v, Stack: debug.Stack()}
					}
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n || cancelled() != nil {
				return
			}
			if err := do(w, i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				stop.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if first != nil {
		panic(first)
	}
	if firstErr != nil {
		return firstErr
	}
	return cancelled()
}

// Panic is what Fork, Run and RunErr re-raise on the caller when do
// panics on one of their goroutines: the value do panicked with and the
// stack of the goroutine that raised it, which the re-raise would
// otherwise lose. With one worker do runs on the caller, and its panic
// propagates as it is.
type Panic struct {
	Value any
	Stack []byte
}

// Error reports the value and the stack it was raised on.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\npanicked on a pool worker:\n%s", p.Value, p.Stack)
}

// Unwrap returns the value when it is an error.
func (p *Panic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

type budgetKey struct{}

// WithWorkers returns ctx carrying the number of goroutines one unit of
// work — a slab, a brick, a field — may spend on its own stages.
func WithWorkers(ctx context.Context, workers int) context.Context {
	return context.WithValue(ctx, budgetKey{}, max(1, workers))
}

// Workers returns the budget WithWorkers put on ctx, or 1 when it carries
// none.
func Workers(ctx context.Context) int {
	if ctx != nil {
		if w, ok := ctx.Value(budgetKey{}).(int); ok {
			return w
		}
	}
	return 1
}

// Share splits a pool of workers (<=0 selects GOMAXPROCS) over n units of
// work that run at once: each unit gets max(1, workers/n).
func Share(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, workers/max(n, 1))
}
