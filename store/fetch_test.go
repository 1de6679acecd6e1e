package store

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"qoz"
	"qoz/datagen"
	"qoz/internal/grid"
)

// wantedSpans lists the distinct spans a cold read of boxes at level wants,
// picked the way the fill loop picks them: one per (brick, source level) of
// a piece that holds a point of the level.
func wantedSpans(m *manifest, boxes []Box, level int) []fetchSpan {
	bk := m.hdr.bricks()
	nd, step := bk.Rank, 1<<(level-1)
	seen := map[brickRef]bool{}
	var spans []fetchSpan
	for _, b := range boxes {
		it := bk.Pieces(b.Lo, b.Hi)
		for it.Next() {
			p := it.Piece
			if _, ok := grid.LevelOf(p.Lo[:nd], p.Hi[:nd], step); !ok {
				continue
			}
			ref := brickRef{p.Index, sourceLevel(m, &p, level)}
			if seen[ref] {
				continue
			}
			seen[ref] = true
			e := m.bricks[p.Index]
			n := e.len
			if ref.level > 0 {
				n = e.levels[len(e.levels)-ref.level].bytes
			}
			spans = append(spans, fetchSpan{e.off, n})
		}
	}
	return spans
}

// spanBytes sums the lengths of spans.
func spanBytes(spans []fetchSpan) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.n
	}
	return n
}

// TestFetchPlan checks planRanges on seeded random span tables laid out
// like a store — bricks back to back, some runs separated by bytes no read
// wants — with whole payloads, level prefixes, duplicates, a prefix beside
// its own payload, bricks larger than the cap, and every gap bound from -1
// to above the spans' extent that changes the outcome.
func TestFetchPlan(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	for trial := 0; trial < 300; trial++ {
		var spans []fetchSpan
		off := rng.Int64N(100)
		for b := 0; b < 1+rng.IntN(60); b++ {
			n := 1 + rng.Int64N(4000)
			if rng.IntN(20) == 0 {
				n = maxFetchRange + rng.Int64N(maxFetchRange)
			}
			switch rng.IntN(6) {
			case 0: // not wanted
			case 1:
				spans = append(spans, fetchSpan{off, 1 + rng.Int64N(n)})
			case 2:
				spans = append(spans, fetchSpan{off, n}, fetchSpan{off, n})
			case 3:
				spans = append(spans, fetchSpan{off, 1 + rng.Int64N(n)}, fetchSpan{off, n})
			default:
				spans = append(spans, fetchSpan{off, n})
			}
			off += n
			if rng.IntN(4) == 0 {
				off += rng.Int64N(5000)
			}
		}
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })

		// Every bound that can change the plan: each gap between sorted
		// spans and its neighbours, -1, 0, and one past the whole extent.
		bounds := []int64{-1, 0, off + 1}
		sorted := slices.Clone(spans)
		slices.SortFunc(sorted, func(a, b fetchSpan) int { return cmp.Compare(a.off, b.off) })
		for i := 1; i < len(sorted); i++ {
			if g := sorted[i].off - (sorted[i-1].off + sorted[i-1].n); g > 0 {
				bounds = append(bounds, g-1, g, g+1)
			}
		}
		for _, gap := range bounds {
			checkPlan(t, spans, gap)
		}
	}
}

// checkPlan asserts the plan's invariants for one table and gap bound.
func checkPlan(t *testing.T, spans []fetchSpan, gap int64) {
	t.Helper()
	ranges, in := planRanges(spans, gap)
	if len(in) != len(spans) {
		t.Fatalf("gap %d: %d range indices for %d spans", gap, len(in), len(spans))
	}
	for i := 1; i < len(ranges); i++ {
		if prev := ranges[i-1]; prev.off+prev.n > ranges[i].off {
			t.Fatalf("gap %d: ranges %v and %v overlap or are out of order", gap, prev, ranges[i])
		}
	}
	held := make([][]fetchSpan, len(ranges))
	for i, sp := range spans {
		r := ranges[in[i]]
		if sp.off < r.off || sp.off+sp.n > r.off+r.n {
			t.Fatalf("gap %d: span %v assigned to range %v that does not hold it", gap, sp, r)
		}
		held[in[i]] = append(held[in[i]], sp)
	}
	for k, r := range ranges {
		hs := held[k]
		if len(hs) == 0 {
			t.Fatalf("gap %d: range %v holds no span", gap, r)
		}
		slices.SortFunc(hs, func(a, b fetchSpan) int { return cmp.Compare(a.off, b.off) })
		// The range is exactly its spans' union plus bridged gaps, each at
		// most the bound.
		if hs[0].off != r.off {
			t.Fatalf("gap %d: range %v starts before its first span %v", gap, r, hs[0])
		}
		end := hs[0].off
		for _, sp := range hs {
			if g := sp.off - end; g > max(gap, 0) {
				t.Fatalf("gap %d: range %v bridges a %d-byte gap", gap, r, g)
			}
			end = max(end, sp.off+sp.n)
		}
		if end != r.off+r.n {
			t.Fatalf("gap %d: range %v runs past its last span (ends %d)", gap, r, end)
		}
		if r.n > maxFetchRange && !slices.Contains(hs, r) {
			t.Fatalf("gap %d: range %v exceeds the %d-byte cap and is not one span", gap, r, maxFetchRange)
		}
		// Greedy merging: the next range's first span could not have
		// joined this one.
		if k+1 < len(ranges) {
			next := ranges[k+1]
			longest := int64(0)
			for _, sp := range held[k+1] {
				if sp.off == next.off {
					longest = max(longest, sp.n)
				}
			}
			if next.off-(r.off+r.n) <= max(gap, 0) && next.off+longest-r.off <= maxFetchRange {
				t.Fatalf("gap %d: ranges %v and %v should have merged", gap, r, next)
			}
		}
	}
}

// TestFetchPlanSharedBrickOnce pins the plan's each-brick-once rule: two
// overlapping boxes of one uncached read share a brick, which is fetched
// and decoded once and copied into both boxes.
func TestFetchPlanSharedBrickOnce(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	s, _ := buildStore(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}},
		Options{CacheBytes: -1})
	defer s.Close()
	boxes := []Box{
		{Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}},  // brick 0
		{Lo: []int{0, 0, 4}, Hi: []int{8, 8, 12}}, // bricks 0 and 1
	}
	var mu sync.Mutex
	var fetches int
	var fetched int64
	ctx := WithStageObserver(context.Background(), func(st Stage, _ time.Duration, b int64) {
		if st == StageFetch {
			mu.Lock()
			fetches++
			fetched += b
			mu.Unlock()
		}
	})
	dst := make([]float32, 2*8*8*8)
	before := s.Stats()
	if _, _, err := ReadBoxesIntoT(ctx, s, dst, boxes, 1); err != nil {
		t.Fatal(err)
	}
	m := s.man.Load()
	if got := s.Stats().BricksDecoded - before.BricksDecoded; got != 2 {
		t.Errorf("decoded %d bricks for 2 distinct ones", got)
	}
	if want := m.bricks[0].len + m.bricks[1].len; fetched != want || fetches != 1 {
		t.Errorf("fetched %d bytes in %d ranges, want %d in 1 (bricks 0 and 1 touch)", fetched, fetches, want)
	}
	for i, b := range boxes {
		want, err := s.ReadRegion(context.Background(), b.Lo, b.Hi)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want {
			if got := dst[i*512+j]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("box %d sample %d = %v, want %v", i, j, got, v)
			}
		}
	}
}

// TestFetchPlanLocalReads checks that local reads issue the plan too: a
// whole-field read of a store whose payloads lie back to back is one
// pread per maxFetchRange, and its bytes are exactly the payloads'.
func TestFetchPlanLocalReads(t *testing.T) {
	ds := datagen.NYX(32, 32, 32)
	var buf bytes.Buffer
	if err := Write(context.Background(), &buf, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}); err != nil {
		t.Fatal(err)
	}
	var reads int
	var readBytes int64
	ra := readerAtFunc(func(p []byte, off int64) (int, error) {
		reads++
		readBytes += int64(len(p))
		return bytes.NewReader(buf.Bytes()).ReadAt(p, off)
	})
	s, err := Open(ra, int64(buf.Len()), Options{CacheBytes: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := s.man.Load()
	reads, readBytes = 0, 0
	for _, level := range []int{1, 2} {
		before, beforeBytes := reads, readBytes
		if _, _, err := s.ReadRegionLevel(context.Background(), make([]int, 3), ds.Dims, level); err != nil {
			t.Fatal(err)
		}
		spans := wantedSpans(m, []Box{{make([]int, 3), ds.Dims}}, level)
		plan, _ := planRanges(spans, 0)
		if got := reads - before; got != len(plan) {
			t.Errorf("level %d: %d preads, plan has %d ranges", level, got, len(plan))
		}
		if got := readBytes - beforeBytes; got != spanBytes(spans) {
			t.Errorf("level %d: read %d bytes, wanted spans hold %d", level, got, spanBytes(spans))
		}
		if level == 1 && len(plan) != 1 {
			t.Errorf("whole-field read of back-to-back payloads planned %d ranges, want 1", len(plan))
		}
	}
}

// readerAtFunc adapts a function to io.ReaderAt.
type readerAtFunc func(p []byte, off int64) (int, error)

func (f readerAtFunc) ReadAt(p []byte, off int64) (int, error) { return f(p, off) }
