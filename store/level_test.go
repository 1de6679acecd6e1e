package store

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"qoz"
	"qoz/datagen"
)

// sampleRegionStride gathers the reference a progressive region read must
// match bit-for-bit: the points of full (row-major over regionDims, the
// box [lo,hi) of the field) whose GLOBAL coordinates are all multiples of
// stride.
func sampleRegionStride[T qoz.Float](full []T, lo, hi []int, stride int) ([]T, []int) {
	nd := len(lo)
	regionDims := make([]int, nd)
	start := make([]int, nd)
	cd := make([]int, nd)
	n := 1
	for d := range lo {
		regionDims[d] = hi[d] - lo[d]
		start[d] = (stride - lo[d]%stride) % stride
		cd[d] = (regionDims[d] - 1 - start[d]) / stride
		if start[d] >= regionDims[d] {
			return nil, nil
		}
		cd[d]++
		n *= cd[d]
	}
	ss := strides(regionDims)
	out := make([]T, n)
	coord := make([]int, nd)
	for i := 0; i < n; i++ {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += (start[d] + coord[d]*stride) * ss[d]
		}
		out[i] = full[idx]
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < cd[d] {
				break
			}
			coord[d] = 0
			d--
		}
	}
	return out, cd
}

// TestReadRegionLevelMatchesStride pins the store-level progressive
// contract on both brick alignments: a level-L region read returns
// exactly the stride-aligned points of the ordinary read, bit-identical,
// whether bricks serve it from level-prefix decodes (power-of-two bricks)
// or the full-decode fallback (misaligned bricks).
func TestReadRegionLevelMatchesStride(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(33, 29, 17)
	for _, tc := range []struct {
		name  string
		brick []int
	}{
		{"aligned-bricks", []int{16, 16, 16}},
		{"misaligned-bricks", []int{12, 10, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(ctx, &buf, ds.Data, ds.Dims,
				WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: tc.brick}); err != nil {
				t.Fatal(err)
			}
			s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.FormatVersion() != 5 {
				t.Fatalf("writer emitted version %d, want 5", s.FormatVersion())
			}
			for _, box := range [][2][]int{
				{{0, 0, 0}, {33, 29, 17}},
				{{3, 5, 2}, {29, 27, 16}},
				{{8, 0, 8}, {24, 16, 17}},
			} {
				lo, hi := box[0], box[1]
				full, err := s.ReadRegion(ctx, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				for level := 1; level <= 6; level++ {
					stride := 1 << (level - 1)
					want, wantDims := sampleRegionStride(full, lo, hi, stride)
					got, gotDims, err := s.ReadRegionLevel(ctx, lo, hi, level)
					if want == nil {
						if err == nil {
							t.Fatalf("box %v level %d: expected no-points error", box, level)
						}
						continue
					}
					if err != nil {
						t.Fatalf("box %v level %d: %v", box, level, err)
					}
					if !equalInts(gotDims, wantDims) {
						t.Fatalf("box %v level %d: dims %v, want %v", box, level, gotDims, wantDims)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("box %v level %d: point %d = %v, want %v", box, level, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestReadRegionLevelFloat64 pins the same contract for the float64
// envelope path, including exact restoration of an escape landing on the
// coarse grid.
func TestReadRegionLevelFloat64(t *testing.T) {
	ctx := context.Background()
	dims := []int{33, 29, 17}
	n := 33 * 29 * 17
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/37) + 1e-13*float64(i%7)
	}
	data[0] = math.NaN()  // on every coarse grid
	data[1] = math.Inf(1) // dropped by level >= 2
	var buf bytes.Buffer
	if err := WriteT(ctx, &buf, data, dims,
		WriteOptions{Opts: qoz.Options{ErrorBound: 1e-7}, Brick: []int{16, 16, 16}}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lo := []int{0, 0, 0}
	full, err := ReadRegionT[float64](ctx, s, lo, dims)
	if err != nil {
		t.Fatal(err)
	}
	for level := 1; level <= 5; level++ {
		stride := 1 << (level - 1)
		want, wantDims := sampleRegionStride(full, lo, dims, stride)
		got, gotDims, err := ReadRegionLevelT[float64](ctx, s, lo, dims, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !equalInts(gotDims, wantDims) {
			t.Fatalf("level %d: dims %v, want %v", level, gotDims, wantDims)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("level %d: point %d = %v, want %v", level, i, got[i], want[i])
			}
		}
	}
}

// TestLevelReadFetchesFewerBytes asserts the acceptance criterion
// directly: over the remote backend (coalescing disabled so transfers are
// auditable), a coarse read range-fetches strictly fewer payload bytes
// than a full-resolution read of the same region, and still matches it
// bit-for-bit on the coarse grid.
func TestLevelReadFetchesFewerBytes(t *testing.T) {
	ctx := context.Background()
	content, dims := remoteTestStore(t)
	srv := serveRanges(t, &servedObject{content: content, etag: `"v1"`}, nil)

	open := func() *Store {
		s, err := OpenURL(srv.URL, Options{
			CacheBytes: -1,
			Remote:     RemoteOptions{ReadAhead: -1, RetryBackoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	lo := make([]int, len(dims))

	sFull := open()
	full, err := sFull.ReadRegion(ctx, lo, dims)
	if err != nil {
		t.Fatal(err)
	}
	manifestBytes := open().Stats().RemoteBytes // open-time transfer alone
	fullBytes := sFull.Stats().RemoteBytes - manifestBytes

	const level = 3
	sCoarse := open()
	coarse, cd, err := sCoarse.ReadRegionLevel(ctx, lo, dims, level)
	if err != nil {
		t.Fatal(err)
	}
	coarseBytes := sCoarse.Stats().RemoteBytes - manifestBytes

	if coarseBytes <= 0 || fullBytes <= 0 {
		t.Fatalf("implausible transfer accounting: full %d, coarse %d", fullBytes, coarseBytes)
	}
	if coarseBytes >= fullBytes {
		t.Fatalf("level-%d read fetched %d bytes, full read %d — progressive read saved nothing", level, coarseBytes, fullBytes)
	}
	want, wantDims := sampleRegionStride(full, lo, dims, 1<<(level-1))
	if !equalInts(cd, wantDims) {
		t.Fatalf("coarse dims %v, want %v", cd, wantDims)
	}
	for i := range want {
		if math.Float32bits(coarse[i]) != math.Float32bits(want[i]) {
			t.Fatalf("point %d = %v, want %v", i, coarse[i], want[i])
		}
	}
	t.Logf("level-%d read: %d bytes fetched vs %d for full resolution (%.1f%%)",
		level, coarseBytes, fullBytes, 100*float64(coarseBytes)/float64(fullBytes))
}

// TestCoarseReadBeatsFullDecode pins the compute-side saving: decoding
// only level prefixes must both process far fewer decoded bytes (a
// deterministic stage-observer assertion) and finish faster than the full
// decode (best-of-three wall clock, which level-4's ~1/512 symbol count
// makes robust).
func TestCoarseReadBeatsFullDecode(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(96, 96, 96)
	var buf bytes.Buffer
	if err := Write(ctx, &buf, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{32, 32, 32}}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lo := []int{0, 0, 0}

	const level = 4
	var fullDecoded, coarseDecoded int64
	timeRead := func(decoded *int64, read func(context.Context) error) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			var dec atomic.Int64 // the observer runs on the read's worker goroutines
			octx := WithStageObserver(ctx, func(st Stage, d time.Duration, b int64) {
				if st == StageDecode {
					dec.Add(b)
				}
			})
			start := time.Now()
			if err := read(octx); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < best {
				best = el
			}
			*decoded = dec.Load()
		}
		return best
	}
	fullTime := timeRead(&fullDecoded, func(octx context.Context) error {
		_, err := s.ReadRegion(octx, lo, ds.Dims)
		return err
	})
	coarseTime := timeRead(&coarseDecoded, func(octx context.Context) error {
		_, _, err := s.ReadRegionLevel(octx, lo, ds.Dims, level)
		return err
	})
	if coarseDecoded == 0 || coarseDecoded >= fullDecoded/8 {
		t.Fatalf("level-%d read decoded %d bytes, full read %d — expected well under 1/8", level, coarseDecoded, fullDecoded)
	}
	if coarseTime >= fullTime {
		t.Fatalf("level-%d read took %v, full read %v — progressive decode saved no time", level, coarseTime, fullTime)
	}
	t.Logf("level-%d: %v vs %v full (decoded %d vs %d bytes)", level, coarseTime, fullTime, coarseDecoded, fullDecoded)
}

// TestBrickLevelsReporting sanity-checks the introspection API used by
// qozc info: v4 progressive bricks report tables ending at level 1 with
// the full payload length; sz3 bricks report none.
func TestBrickLevelsReporting(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(16, 16, 16)
	var buf bytes.Buffer
	if err := Write(ctx, &buf, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < s.NumBricks(); i++ {
		tbl := s.BrickLevels(i)
		if len(tbl) == 0 {
			t.Fatalf("brick %d: no level table on a v4 qoz store", i)
		}
		if last := tbl[len(tbl)-1]; last.Level != 1 {
			t.Fatalf("brick %d: table ends at level %d", i, last.Level)
		}
		for j := 1; j < len(tbl); j++ {
			if tbl[j].Bytes <= tbl[j-1].Bytes || tbl[j].Level != tbl[j-1].Level-1 {
				t.Fatalf("brick %d: malformed table %v", i, tbl)
			}
		}
	}
}
