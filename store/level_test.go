package store

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// levelStore is one store the progressive-read tests run over.
type levelStore struct {
	name    string
	content []byte
	dims    []int
}

// mutableLevelStores grows one mutable store through every kind of commit
// and snapshots the file after each: an append that ends on a band
// boundary, an append that leaves a partial last band, a brick rewrite,
// and a compaction. Level tables must ride along through all four — the
// feature that reached the journal at PR 22.
func mutableLevelStores(t *testing.T) []levelStore {
	t.Helper()
	ctx := context.Background()
	ds := datagen.NYX(40, 32, 32)
	const plane = 32 * 32
	path := filepath.Join(t.TempDir(), "levels.qozb")
	m, err := CreateMutable(path, []int{0, 32, 32}, WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-3 * 8},
		Brick: []int{16, 16, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out []levelStore
	snap := func(name string) {
		t.Helper()
		content, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, levelStore{name, content, m.Dims()})
	}
	if err := m.AppendSteps(ctx, ds.Data[:32*plane]); err != nil {
		t.Fatal(err)
	}
	snap("aligned-append")
	if err := m.AppendSteps(ctx, ds.Data[32*plane:]); err != nil {
		t.Fatal(err)
	}
	snap("partial-append")
	patch := make([]float32, 16*plane)
	for i := range patch {
		patch[i] = ds.Data[i] * 0.5
	}
	if err := m.RewriteBricks(ctx, []int{0, 0, 0}, []int{16, 32, 32}, patch); err != nil {
		t.Fatal(err)
	}
	snap("rewrite")
	if err := m.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	snap("compact")
	return out
}

// TestReadRegionLevelMatchesStride pins the store-level progressive
// contract on both brick alignments: a level-L region read returns
// exactly the stride-aligned points of the ordinary read, bit-identical,
// whether bricks serve it from level-prefix decodes (power-of-two bricks)
// or the full-decode fallback (misaligned bricks).
func TestReadRegionLevelMatchesStride(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(33, 29, 17)
	// The whole field, an interior box aligned to nothing, and a box that
	// straddles bricks and ends at the field edge.
	boxes := func(d []int) [][2][]int {
		if len(d) == 8 { // the second holds no point past level 1, the third none past level 2
			return [][2][]int{
				{make([]int, 8), d},
				{{1, 0, 1, 0, 1, 0, 1, 2}, d},
				{{0, 0, 0, 0, 0, 0, 1, 1}, d},
			}
		}
		return [][2][]int{
			{{0, 0, 0}, d},
			{{3, 5, 2}, {d[0] - 4, d[1] - 2, d[2] - 1}},
			{{8, 0, 8}, {24, 16, d[2]}},
		}
	}
	var stores []levelStore
	for _, tc := range []struct {
		name  string
		brick []int
	}{
		{"aligned-bricks", []int{16, 16, 16}},
		{"misaligned-bricks", []int{12, 10, 9}},
	} {
		stores = append(stores, levelStore{tc.name, writeBytes(t, ds.Data, ds.Dims,
			WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: tc.brick}), ds.Dims})
	}
	for _, st := range mutableLevelStores(t) {
		st.name = "mutable-" + st.name
		stores = append(stores, st)
	}
	data8, wo8 := rank8Field()
	stores = append(stores, levelStore{"rank-8", writeBytes(t, data8, rank8Dims, wo8), rank8Dims})
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s := openBytes(t, st.content)
			if s.FormatVersion() != 3 {
				t.Fatalf("writer emitted version %d, want 3", s.FormatVersion())
			}
			for _, box := range boxes(st.dims) {
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
					if !slices.Equal(gotDims, wantDims) {
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
		if !slices.Equal(gotDims, wantDims) {
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
// directly: over the remote backend with default options, a coarse read
// range-fetches strictly fewer payload bytes than a full-resolution read
// of the same region, and still matches it bit-for-bit on the coarse grid
// — on a written-once store at level 3, and at level 2 on a mutable store
// after each kind of commit.
func TestLevelReadFetchesFewerBytes(t *testing.T) {
	content, dims := remoteTestStore(t)
	t.Run("written-once", func(t *testing.T) { levelReadFetchesFewerBytes(t, content, dims, 3) })
	for _, st := range mutableLevelStores(t) {
		t.Run("mutable-"+st.name, func(t *testing.T) { levelReadFetchesFewerBytes(t, st.content, st.dims, 2) })
	}
}

func levelReadFetchesFewerBytes(t *testing.T, content []byte, dims []int, level int) {
	ctx := context.Background()
	srv := serveRanges(t, &servedObject{content: content, etag: `"v1"`}, nil)

	open := func() *Store {
		s, err := OpenURL(srv.URL, Options{
			CacheBytes: -1,
			Remote:     RemoteOptions{RetryBackoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	lo := make([]int, len(dims))

	sFull := open()
	full, _, err := sFull.ReadRegionLevel(ctx, lo, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	manifestBytes := open().Stats().RemoteBytes // open-time transfer alone
	fullBytes := sFull.Stats().RemoteBytes - manifestBytes

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
		t.Fatalf("level-%d read fetched %d bytes, level-1 read %d — progressive read saved nothing", level, coarseBytes, fullBytes)
	}
	want, wantDims := sampleRegionStride(full, lo, dims, 1<<(level-1))
	if !slices.Equal(cd, wantDims) {
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
// qozc info: progressive bricks report tables ending at level 1 with the
// full payload length, on a written-once store and on a mutable store
// after every kind of commit; sz3 bricks report none.
func TestBrickLevelsReporting(t *testing.T) {
	ds := datagen.NYX(16, 16, 16)
	stores := append(mutableLevelStores(t), levelStore{"written-once", writeBytes(t, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}), ds.Dims})
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s := openBytes(t, st.content)
			m := s.man.Load()
			for i := 0; i < s.NumBricks(); i++ {
				tbl := s.BrickLevels(i)
				if len(tbl) == 0 {
					t.Fatalf("brick %d: no level table on a qoz store", i)
				}
				if last := tbl[len(tbl)-1]; last.Level != 1 || last.Bytes != m.bricks[i].len {
					t.Fatalf("brick %d: table ends at level %d, %d bytes (payload %d)", i, last.Level, last.Bytes, m.bricks[i].len)
				}
				for j := 1; j < len(tbl); j++ {
					if tbl[j].Bytes <= tbl[j-1].Bytes || tbl[j].Level != tbl[j-1].Level-1 {
						t.Fatalf("brick %d: malformed table %v", i, tbl)
					}
				}
			}
		})
	}
	sz3, err := qoz.Lookup("sz3")
	if err != nil {
		t.Fatal(err)
	}
	s := openBytes(t, writeBytes(t, ds.Data, ds.Dims,
		WriteOptions{Codec: sz3, Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{8, 8, 8}}))
	for i := 0; i < s.NumBricks(); i++ {
		if tbl := s.BrickLevels(i); tbl != nil {
			t.Fatalf("sz3 brick %d reports a level table %v", i, tbl)
		}
	}
}
