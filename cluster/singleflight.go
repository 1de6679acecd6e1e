package cluster

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flight coalesces concurrent identical requests: the first caller of a
// key becomes the leader and runs the function; callers arriving while it
// runs wait and share its result. This is the request-layer mirror of the
// byte-range coalescing in store's remote reader — there, concurrent
// brick fetches collapse into one transfer; here, a thundering herd on
// one hot region collapses into one decode (or, at a gateway, one
// fan-out).
//
// Cancellation is refcounted: the leader's function runs under a context
// that is cancelled only when every coalesced caller has cancelled. One
// impatient client among a herd therefore cannot kill the decode the rest
// are waiting on, but work nobody wants anymore stops promptly.
//
// The same count ends the result's life. One value is handed to every
// coalesced caller, so none of them can know when the others are through
// with it; each says when it is (the done function Do returns), and a
// value that has a Release method is released exactly once, after the
// last of them — which is what lets a result own pooled memory.
//
// The zero value is ready to use. Safe for concurrent use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	leads     atomic.Int64
	coalesced atomic.Int64
}

// flightCall is one in-flight execution and its waiters.
type flightCall struct {
	done   chan struct{} // closed when val/err are set
	cancel context.CancelFunc
	// waiters counts the callers that may still use the execution: waiting
	// for it, or handed its value and not done with it. finished says fn
	// has returned. Both are guarded by Flight.mu; whoever makes "finished
	// and no waiters" true releases the value.
	waiters  int
	finished bool
	val      any
	err      error
}

// release gives a value that owns something back, once nobody holds it. An
// error carries no value, so there is nothing to release.
func (c *flightCall) release() {
	if r, ok := c.val.(interface{ Release() }); ok && c.err == nil {
		r.Release()
	}
}

// FlightStats reports a Flight's lifetime activity.
type FlightStats struct {
	// Leads counts executions actually run.
	Leads int64
	// Coalesced counts callers served by someone else's execution.
	Coalesced int64
}

// Stats returns the counters accumulated since the zero value.
func (f *Flight) Stats() FlightStats {
	return FlightStats{Leads: f.leads.Load(), Coalesced: f.coalesced.Load()}
}

// Do returns the result of fn for key, executing it at most once among
// concurrent callers. shared reports whether the result came from another
// caller's execution. fn receives a context that stays live until every
// coalesced caller has cancelled; a caller whose own ctx ends stops
// waiting (and gets ctx's error) without disturbing the rest.
//
// done is never nil, and a caller that was handed a value calls it when it
// will not touch the value again; calling it more than once is the same as
// calling it once. If the value has a Release method, Release runs exactly
// once: after every caller that was handed the value has called done, or —
// when every caller left on its own context first — when fn returns. It
// never runs for an error, and a value whose callers never call done is
// simply never released.
//
// Results are not cached: once fn returns and its waiters are served, the
// next Do with the same key executes fn again. Coalescing is therefore
// purely about concurrency, never staleness.
func (f *Flight) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, shared bool, done func(), err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall)
	}
	if c, ok := f.calls[key]; ok {
		c.waiters++
		f.mu.Unlock()
		f.coalesced.Add(1)
		return f.wait(ctx, key, c, true)
	}
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &flightCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
	f.calls[key] = c
	f.mu.Unlock()
	f.leads.Add(1)

	go func() {
		c.val, c.err = fn(runCtx)
		// Forget before announcing: a request arriving after completion
		// must start a fresh execution, not adopt a finished one.
		f.mu.Lock()
		if f.calls[key] == c {
			delete(f.calls, key)
		}
		c.finished = true
		abandoned := c.waiters == 0
		f.mu.Unlock()
		cancel()
		if abandoned {
			c.release()
		}
		close(c.done)
	}()
	return f.wait(ctx, key, c, false)
}

// wait blocks until the call completes or the caller's ctx ends. A caller
// handed a value keeps its place among the waiters until its done; one
// that is not (its ctx ended, or the call failed) needs no done.
func (f *Flight) wait(ctx context.Context, key string, c *flightCall, shared bool) (any, bool, func(), error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, shared, func() {}, c.err
		}
		var called atomic.Bool
		return c.val, shared, func() {
			if called.CompareAndSwap(false, true) {
				f.leave(key, c)
			}
		}, nil
	case <-ctx.Done():
		f.leave(key, c)
		return nil, shared, func() {}, ctx.Err()
	}
}

// leave takes one caller off the call. The last one out of an execution
// still running cancels it and forgets the key, so the next request starts
// clean; the last one out of a finished execution releases its value.
func (f *Flight) leave(key string, c *flightCall) {
	f.mu.Lock()
	c.waiters--
	last, finished := c.waiters == 0, c.finished
	if last && f.calls[key] == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	switch {
	case !last:
	case finished:
		c.release()
	default:
		c.cancel()
	}
}
