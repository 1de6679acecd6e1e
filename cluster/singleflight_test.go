package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// owned is a flight result that owns something: Release counts itself and
// notes how many done calls had been made when it ran.
type owned struct {
	dones    *atomic.Int32 // done calls made so far, bumped by the test before each
	released atomic.Int32
	sawDones atomic.Int32
	ch       chan struct{} // closed by the first Release
}

func (o *owned) Release() {
	o.sawDones.Store(o.dones.Load())
	if o.released.Add(1) == 1 {
		close(o.ch)
	}
}

// TestFlightRelease pins the release protocol of Flight.Do: a result with a
// Release method is released exactly once, after the last caller that was
// handed it has called done — or, when every caller left first, when fn
// returns — and never for an error. Calling done twice is calling it once.
func TestFlightRelease(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		callers int   // concurrent callers of one key; caller 0 leads
		leave   []int // callers whose context ends before fn returns
		fnErr   error
		twice   bool // the first caller handed the value calls done twice, before anyone else's done
		plain   bool // the value has no Release method
		want    int32
	}{
		{name: "leader alone", callers: 1, want: 1},
		{name: "coalesced waiters, done in arbitrary order", callers: 9, want: 1},
		{name: "one waiter leaves, the rest stay", callers: 5, leave: []int{2}, want: 1},
		{name: "the leader leaves, the rest stay", callers: 5, leave: []int{0}, want: 1},
		{name: "every caller leaves before fn returns", callers: 4, leave: []int{0, 1, 2, 3}, want: 1},
		{name: "fn fails", callers: 4, fnErr: boom, want: 0},
		{name: "done called twice by one caller", callers: 3, twice: true, want: 1},
		{name: "value without Release", callers: 3, plain: true, want: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f Flight
			var dones atomic.Int32
			res := &owned{dones: &dones, ch: make(chan struct{})}
			var val any = res
			if tc.plain {
				val = "plain"
			}
			gate := make(chan struct{})
			fn := func(context.Context) (any, error) {
				<-gate // deliberately deaf to its context: it returns a value to nobody
				if tc.fnErr != nil {
					return nil, tc.fnErr
				}
				return val, nil
			}

			type outcome struct {
				val  any
				done func()
				err  error
			}
			outs := make([]chan outcome, tc.callers)
			cancels := make([]context.CancelFunc, tc.callers)
			for i := range outs {
				outs[i] = make(chan outcome, 1)
				ctx, cancel := context.WithCancel(context.Background())
				cancels[i] = cancel
				defer cancel()
				go func() {
					v, _, done, err := f.Do(ctx, "k", fn)
					outs[i] <- outcome{v, done, err}
				}()
				// Caller 0 must be the leader; the rest only need to have joined.
				waitFor(t, func() bool { st := f.Stats(); return st.Leads+st.Coalesced == int64(i+1) })
			}

			left := map[int]bool{}
			for _, i := range tc.leave {
				left[i] = true
				cancels[i]()
				o := <-outs[i]
				if !errors.Is(o.err, context.Canceled) || o.done == nil {
					t.Fatalf("departed caller %d: err %v, done nil: %v", i, o.err, o.done == nil)
				}
				o.done() // a no-op, but always callable
			}
			if n := res.released.Load(); n != 0 {
				t.Fatalf("released %d times before fn returned", n)
			}
			close(gate)

			var handed []func()
			for i := 0; i < tc.callers; i++ {
				if left[i] {
					continue
				}
				o := <-outs[i]
				if o.done == nil {
					t.Fatalf("caller %d: nil done", i)
				}
				if tc.fnErr != nil {
					if !errors.Is(o.err, tc.fnErr) {
						t.Fatalf("caller %d: err %v, want %v", i, o.err, tc.fnErr)
					}
					o.done()
					continue
				}
				if o.err != nil || o.val != val {
					t.Fatalf("caller %d: val %v err %v", i, o.val, o.err)
				}
				handed = append(handed, o.done)
			}

			if tc.twice {
				dones.Add(1)
				handed[0]()
				handed[0]()
				if n := res.released.Load(); n != 0 {
					t.Fatalf("released %d times after one caller's two dones, %d callers still hold the value", n, len(handed)-1)
				}
				handed = handed[1:]
			}
			rand.New(rand.NewSource(int64(tc.callers))).Shuffle(len(handed), func(i, j int) {
				handed[i], handed[j] = handed[j], handed[i]
			})
			for _, done := range handed {
				if n := res.released.Load(); n != 0 {
					t.Fatalf("released %d times with a caller still holding the value", n)
				}
				dones.Add(1)
				done()
			}

			if tc.want == 1 {
				// With callers handed the value, the last done released it
				// synchronously; with none, the flight does once fn has returned.
				select {
				case <-res.ch:
				case <-time.After(5 * time.Second):
					t.Fatal("never released")
				}
				if saw, all := res.sawDones.Load(), dones.Load(); saw != all {
					t.Errorf("released after %d of %d done calls", saw, all)
				}
			}
			for _, done := range handed {
				done() // late repeats change nothing
			}
			if n := res.released.Load(); n != tc.want {
				t.Errorf("released %d times, want %d", n, tc.want)
			}
		})
	}
}

// TestFlightReleaseConcurrent runs the protocol the way a server does:
// every caller reads the shared value and then calls done, all at once,
// while Release overwrites the value. A release that ran before some
// reader's done is a data race (under -race) and a wrong byte (without).
func TestFlightReleaseConcurrent(t *testing.T) {
	var f Flight
	for round := 0; round < 200; round++ {
		buf := &scratch{b: make([]byte, 256)}
		for i := range buf.b {
			buf.b[i] = 1
		}
		gate := make(chan struct{})
		// Caller 7 gives up at the moment fn returns: it is either handed the
		// value or leaves without it, and the release must come out right
		// both ways.
		ctx7, cancel7 := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				if i == 7 {
					ctx = ctx7
				}
				v, _, done, err := f.Do(ctx, "k", func(context.Context) (any, error) {
					<-gate
					return buf, nil
				})
				if err != nil {
					return
				}
				for _, x := range v.(*scratch).b {
					if x != 1 {
						t.Errorf("round %d: read %d from a value released under its reader", round, x)
						break
					}
				}
				done()
			}()
		}
		waitFor(t, func() bool { st := f.Stats(); return st.Leads+st.Coalesced == int64(8*(round+1)) })
		go cancel7()
		close(gate)
		wg.Wait()
		if n := buf.released.Load(); n != 1 {
			t.Fatalf("round %d: released %d times", round, n)
		}
	}
}

type scratch struct {
	b        []byte
	released atomic.Int32
}

func (s *scratch) Release() {
	s.released.Add(1)
	for i := range s.b {
		s.b[i] = 0xA5
	}
}

// waitFor polls cond; the events waited for are other goroutines reaching
// Flight.Do, which nothing signals.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
