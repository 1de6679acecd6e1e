package store

// Fetch plans. A read that misses bricks knows every one of them before it
// fetches any, so it plans its fetches once. Each distinct (brick, source
// level) it must decode wants one span of the backing object — the brick's
// payload, or its level prefix — and the spans, sorted by offset, merge
// into ranges wherever they touch (and, on an OpenURL store whose
// RemoteOptions.ReadAhead is positive, across gaps of up to that many
// bytes), each range capped at maxFetchRange. Every range is one ReadAt:
// one pread of a local file, one HTTP range request of a URL. The ranges
// are issued on the read's worker pool together with the decodes they
// feed: the first brick task that needs a range fetches it, its siblings
// wait for those bytes and decode on their own workers, and the range's
// pooled buffer goes back once its last brick is done. Region, level and
// multi-box reads and the query scans all decode through decodeBricks;
// nothing else in the package reads payload bytes.

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qoz"
	"qoz/internal/grid"
	"qoz/internal/pool"
)

// maxFetchRange caps a merged range, as the gateway caps a shard round
// trip: past it, one more brick per request saves little and delays the
// decodes waiting on the range. A single span larger than the cap is
// fetched whole.
const maxFetchRange = 256 << 10

// fetchSpan is the half-open byte span [off, off+n) of the backing object.
type fetchSpan struct{ off, n int64 }

// planRanges merges spans into the ranges a read issues. Sorted by offset
// (the longest first among spans that start together, so a level prefix
// follows its brick's whole payload), a span joins the open range when it
// shares bytes with it — so every wanted byte is fetched once — or when it
// touches it or lies at most gap bytes past it (gap <= 0 bridges nothing)
// and the grown range stays within maxFetchRange; otherwise it opens a new
// range. It returns the ranges in offset order and, per span, the index of
// the range holding it.
func planRanges(spans []fetchSpan, gap int64) (ranges []fetchSpan, in []int) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(spans[a].off, spans[b].off), cmp.Compare(spans[b].n, spans[a].n))
	})
	in = make([]int, len(spans))
	gap = max(gap, 0)
	for _, i := range order {
		sp := spans[i]
		if k := len(ranges) - 1; k >= 0 {
			r := &ranges[k]
			end, grown := r.off+r.n, max(r.off+r.n, sp.off+sp.n)-r.off
			if sp.off < end || (sp.off-end <= gap && grown <= maxFetchRange) {
				r.n = grown
				in[i] = k
				continue
			}
		}
		in[i] = len(ranges)
		ranges = append(ranges, sp)
	}
	return ranges, in
}

// brickRef names one decode: brick i at a source level (0 = the whole
// brick, L > 1 = its level-L prefix).
type brickRef struct{ brick, level int }

// brickTask is one distinct decode of a read: its span and checksum, the
// range that carries the span, and the read's jobs it serves.
type brickTask struct {
	brickRef
	span fetchSpan
	crc  uint32
	rng  int   // index into the plan's ranges
	turn int   // place among the range's tasks: tasks dispatch turn by turn
	jobs []int // indices into the read's refs
}

// fetchRange is one planned ReadAt and the buffer its tasks share.
type fetchRange struct {
	fetchSpan
	once sync.Once
	buf  []byte
	err  error
	left atomic.Int32 // tasks not yet done with buf
}

// planFetch groups refs into one task per distinct (brick, level) and plans
// the tasks' spans into ranges. Tasks come back in dispatch order, round
// robin over the ranges: the first len(ranges) tasks each start a different
// range, so a pool with that many workers has every range in flight at
// once. The cost of that order is that a pool with fewer workers may hold
// the buffers of all the read's ranges at once — the read's compressed
// bytes, a fraction of what it decodes.
func planFetch(m *manifest, refs []brickRef, gap int64) ([]brickTask, []fetchRange) {
	order := make([]int, len(refs))
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(refs[a].brick, refs[b].brick), cmp.Compare(refs[a].level, refs[b].level))
	})
	var tasks []brickTask
	var spans []fetchSpan
	for k, j := range order {
		if k > 0 && refs[j] == refs[order[k-1]] {
			t := &tasks[len(tasks)-1]
			t.jobs = t.jobs[:len(t.jobs)+1] // a window of order, grown over j
			continue
		}
		t := brickTask{brickRef: refs[j], jobs: order[k : k+1]}
		e := &m.bricks[t.brick]
		t.span, t.crc = fetchSpan{e.off, e.len}, e.crc
		if t.level > 0 {
			lv := e.levels[len(e.levels)-t.level] // entry j holds level len-j
			t.span.n, t.crc = lv.bytes, lv.crc
		}
		tasks, spans = append(tasks, t), append(spans, t.span)
	}
	planned, in := planRanges(spans, gap)
	ranges := make([]fetchRange, len(planned))
	for i := range tasks {
		r := &ranges[in[i]]
		r.fetchSpan = planned[in[i]]
		tasks[i].rng = in[i]
		tasks[i].turn = int(r.left.Add(1)) - 1
	}
	slices.SortFunc(tasks, func(a, b brickTask) int {
		return cmp.Or(cmp.Compare(a.turn, b.turn), cmp.Compare(a.rng, b.rng))
	})
	return tasks, ranges
}

// decodeBricks decodes the bricks refs name, each distinct (brick, level)
// once, on the read's worker pool, and calls use(j, p, data) for every ref
// j with its piece p — its brick's share of the field box boxOf(j) — and
// its brick's decode; refs sharing a decode are served one after another
// on the worker that decoded it. A task takes its brick from the cache
// when another read has just put it there, and otherwise from its span of
// its range, which the range's first task to need it fetches. A full
// decode of a brick (level 0) that the cache will not keep reconstructs
// only the bounding box of the task's pieces (decodeBrick), so use must
// read data inside its piece alone. The last of a range's tasks returns
// the range's buffer. use must not keep data: the task releases its hold
// on the decode once use returns, and the decode may go back to the slab
// pool then. The piece is passed by value: a pointer handed to a function
// value would move every piece to the heap.
func decodeBricks[N qoz.Float](ctx context.Context, s *Store, m *manifest, refs []brickRef, boxOf func(j int) (lo, hi []int), use func(j int, p grid.Piece, data []N)) error {
	tasks, ranges := planFetch(m, refs, s.gap)
	bk := m.hdr.bricks()
	obsv := stageObserverFrom(ctx)
	err := pool.RunErr(ctx, len(tasks), s.workers, func(k int) error {
		t, r := &tasks[k], &ranges[tasks[k].rng]
		defer r.release()
		data, ent := cachedBrick[N](s, m, t.brick, t.level, obsv)
		if ent == nil {
			s.read.Add(1)
			buf, err := r.fetch(ctx, m.ra, obsv)
			if err != nil {
				return fmt.Errorf("store: brick %d: %w", t.brick, err)
			}
			at := t.span.off - r.off
			if data, ent, err = decodeBrick[N](ctx, s, m, t, t.need(&bk, boxOf), buf[at:at+t.span.n], obsv); err != nil {
				return err
			}
		}
		defer releaseBrick(data, ent)
		for _, j := range t.jobs {
			lo, hi := boxOf(j)
			use(j, bk.Piece(t.brick, lo, hi), data)
		}
		return nil
	})
	// Tasks the pool skipped after a failure never released their range.
	for i := range ranges {
		if r := &ranges[i]; r.left.Load() > 0 && r.buf != nil {
			pool.PutSlab(r.buf)
		}
	}
	return err
}

// need returns the part of the task's brick its jobs read: the bounding
// box of their pieces, in brick coordinates, one range per dimension — or
// nil when that is the whole brick, or the task decodes a level prefix,
// whose coarse grid is small and decodes whole.
func (t *brickTask) need(bk *grid.Bricks, boxOf func(j int) (lo, hi []int)) []qoz.Range {
	if t.level > 0 {
		return nil
	}
	var lo, hi, blo, bhi grid.Coord
	for k, j := range t.jobs {
		jlo, jhi := boxOf(j)
		p := bk.Piece(t.brick, jlo, jhi)
		if k == 0 {
			lo, hi, blo, bhi = p.Lo, p.Hi, p.BLo, p.BHi
			continue
		}
		for d := range bk.Rank {
			lo[d], hi[d] = min(lo[d], p.Lo[d]), max(hi[d], p.Hi[d])
		}
	}
	if lo == blo && hi == bhi {
		return nil
	}
	box := make([]qoz.Range, bk.Rank)
	for d := range box {
		box[d] = qoz.Range{Lo: lo[d] - blo[d], Hi: hi[d] - blo[d]}
	}
	return box
}

// release marks one of the range's tasks done; the last returns the buffer.
func (r *fetchRange) release() {
	if r.left.Add(-1) == 0 && r.buf != nil {
		pool.PutSlab(r.buf)
	}
}

// contextReader is a backing reader whose reads can observe a context —
// the remote backend, so a cancelled read aborts its range requests.
type contextReader interface {
	at(ctx context.Context) io.ReaderAt
}

// fetch reads the range with one ReadAt on its first call; later calls,
// from the range's other tasks, wait for that read and share its bytes.
// This is the one place the package reads brick payloads. StageFetch is
// observed once per range, with the range's byte count.
func (r *fetchRange) fetch(ctx context.Context, ra io.ReaderAt, obsv StageObserver) ([]byte, error) {
	r.once.Do(func() {
		if c, ok := ra.(contextReader); ok {
			ra = c.at(ctx)
		}
		var start time.Time
		if obsv != nil {
			start = time.Now()
		}
		buf := pool.Slab[byte](int(r.n))
		_, err := ra.ReadAt(buf, r.off)
		if obsv != nil {
			obsv(StageFetch, time.Since(start), r.n)
		}
		if err != nil {
			pool.PutSlab(buf)
			r.err = err
			return
		}
		r.buf = buf
	})
	return r.buf, r.err
}
