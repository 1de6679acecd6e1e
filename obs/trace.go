package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one completed request trace: a root span plus the child spans
// recorded under it, with millisecond offsets relative to the trace start.
// This struct is the JSON schema of /debug/traces entries.
type Trace struct {
	// ID is the trace's correlation id — derived from X-Qoz-Request-Id at
	// the serving layer, so one id greps across gateway, shard, and logs.
	ID string `json:"id"`
	// Name is the root span's name (e.g. "GET region").
	Name string `json:"name"`
	// Start is the wall-clock start; offsets within the trace are computed
	// from the monotonic clock, so spans never go negative across a clock
	// step.
	Start time.Time `json:"start"`
	// DurationMS is the root span's duration in milliseconds.
	DurationMS float64 `json:"durationMs"`
	// Spans lists every span, root first, in start order. Span IDs are
	// 1-based; the root's Parent is 0.
	Spans []SpanData `json:"spans"`
}

// SpanData is one recorded span of a Trace.
type SpanData struct {
	ID         int               `json:"id"`
	Parent     int               `json:"parent"` // 0 on the root span
	Name       string            `json:"name"`
	StartMS    float64           `json:"startMs"`    // offset from Trace.Start
	DurationMS float64           `json:"durationMs"` // -1 if the span never ended
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Recorder keeps a bounded ring of recently completed traces. Completed
// traces overwrite the oldest once the ring is full, so memory is bounded
// no matter the request rate. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	ring  []*Trace
	cap   int
	next  int    // overwrite cursor once len(ring) == cap
	total uint64 // traces ever published
}

// NewRecorder builds a recorder keeping the last capacity traces
// (capacity <= 0 selects 256).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &Recorder{ring: make([]*Trace, 0, capacity), cap: capacity}
}

// publish appends a completed trace, evicting the oldest at capacity.
func (r *Recorder) publish(t *Trace) {
	r.mu.Lock()
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, t)
	} else {
		r.ring[r.next] = t
		r.next = (r.next + 1) % r.cap
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many traces have ever been published (including those
// the ring has since evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to limit completed traces, newest first, keeping
// only traces at least min long. limit <= 0 means all retained.
func (r *Recorder) Snapshot(limit int, min time.Duration) []*Trace {
	if r == nil {
		return nil
	}
	minMS := float64(min.Nanoseconds()) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]*Trace, 0, limit)
	for i := 0; i < n && len(out) < limit; i++ {
		// Newest first: walk backward from the slot before the overwrite
		// cursor (which is the oldest entry when the ring is full).
		t := r.ring[(r.next-1-i+2*n)%n]
		if t.DurationMS >= minMS {
			out = append(out, t)
		}
	}
	return out
}

// liveTrace is a trace being built: spans still opening, ending, and
// annotating concurrently (a gateway fan-out opens spans from many
// goroutines). All access to data goes through mu until the root span
// ends: that seals the trace and hands data itself to the recorder, and
// from then on nothing writes it, so readers need no lock.
type liveTrace struct {
	rec   *Recorder
	start time.Time // monotonic anchor for span offsets

	mu     sync.Mutex
	data   *Trace
	sealed bool // the root span has ended and data is published
}

// Span is a live span handle. All methods are safe on a nil receiver —
// code instrumented with spans runs identically (and nearly freely) when
// no trace is attached to the context — and safe for concurrent use.
type Span struct {
	lt    *liveTrace
	idx   int // index into lt.data.Spans
	id    int
	start time.Time
}

// spanKey carries the current span through a context.
type spanKey struct{}

// StartTrace begins a new trace rooted at a span called name and returns
// a context carrying it; child spans started from that context (StartSpan)
// attach under it. Ending the root span publishes the trace into the
// recorder's ring. A nil Recorder returns (ctx, nil), and every Span
// method no-ops on nil, so callers never branch.
func (r *Recorder) StartTrace(ctx context.Context, id, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	now := time.Now()
	lt := &liveTrace{rec: r, start: now, data: &Trace{ID: id, Name: name, Start: now}}
	lt.data.Spans = []SpanData{{ID: 1, Name: name, DurationMS: -1}}
	sp := &Span{lt: lt, idx: 0, id: 1, start: now}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpan begins a child of the context's current span and returns a
// context carrying the child. Without a trace in ctx, or once its root
// span has ended, it returns (ctx, nil): instrumented code needs no
// trace-or-not branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	lt := parent.lt
	now := time.Now()
	lt.mu.Lock()
	if lt.sealed {
		lt.mu.Unlock()
		return ctx, nil
	}
	id := len(lt.data.Spans) + 1
	lt.data.Spans = append(lt.data.Spans, SpanData{
		ID:         id,
		Parent:     parent.id,
		Name:       name,
		StartMS:    durMS(now.Sub(lt.start)),
		DurationMS: -1,
	})
	lt.mu.Unlock()
	sp := &Span{lt: lt, idx: id - 1, id: id, start: now}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// FromContext returns the context's current span, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Annotate attaches a key/value attribute to the span; after the root
// span has ended it does nothing.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.lt.mu.Lock()
	defer s.lt.mu.Unlock()
	if s.lt.sealed {
		return
	}
	sd := &s.lt.data.Spans[s.idx]
	if sd.Attrs == nil {
		sd.Attrs = make(map[string]string, 4)
	}
	sd.Attrs[key] = value
}

// End records the span's duration (first End wins) and returns it. Ending
// the root span seals the trace and publishes it to the recorder; a span
// that ends after that records nothing.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	lt := s.lt
	lt.mu.Lock()
	if lt.sealed {
		lt.mu.Unlock()
		return d
	}
	sd := &lt.data.Spans[s.idx]
	if sd.DurationMS < 0 {
		sd.DurationMS = durMS(d)
	}
	root := s.idx == 0
	if root {
		lt.data.DurationMS = sd.DurationMS
		lt.sealed = true
	}
	lt.mu.Unlock()
	if root {
		lt.rec.publish(lt.data)
	}
	return d
}

// TraceData returns the trace published when the root span ended, which
// nothing changes any more, or nil before that (or on a nil span).
// Serving layers use it to promote a slow request's full span breakdown
// into a log line.
func (s *Span) TraceData() *Trace {
	if s == nil {
		return nil
	}
	s.lt.mu.Lock()
	defer s.lt.mu.Unlock()
	if !s.lt.sealed {
		return nil
	}
	return s.lt.data
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
