package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qoz"
)

// sample and sample64 are defined sample types: every ...T function must
// take them exactly as it takes float32 and float64.
type (
	sample   float32
	sample64 float64
)

// kindField returns a smooth 12x12x12 field with a NaN and an Inf in it, as
// float64 values that — NaN payload included — survive a round trip
// through float32 when narrow.
func kindField(narrow bool) []float64 {
	out := make([]float64, 12*12*12)
	for i := range out {
		out[i] = math.Sin(float64(i)/37) + 1e-9*float64(i%7)
	}
	out[5], out[900] = math.NaN(), math.Inf(1)
	if narrow {
		for i, v := range out {
			out[i] = float64(float32(v))
		}
	}
	return out
}

func convert[F, T qoz.Float](v []F) []T {
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}

// sameBits reports whether got, widened, equals want bit for bit.
func sameBits[T qoz.Float](got []T, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// kindStore builds a write-once store of sample type N over kindField.
func kindStore[N qoz.Float](t *testing.T) *Store {
	t.Helper()
	var buf bytes.Buffer
	wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{8, 8, 8}}
	var z N
	data := convert[float64, N](kindField(elemBytes[N]() == 4))
	if err := WriteT(context.Background(), &buf, data, []int{12, 12, 12}, wo); err != nil {
		t.Fatalf("WriteT[%T]: %v", z, err)
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// readOps runs every read operation of s as sample type T. When refuse is
// set each must fail with exactly qoz.ErrNarrowing; otherwise each must
// equal the native reference ref — the store's own full-field read, widened
// — bit for bit.
func readOps[T qoz.Float](t *testing.T, s *Store, ref []float64, refuse bool) {
	t.Helper()
	ctx := context.Background()
	dims := []int{12, 12, 12}
	lo, hi := []int{2, 0, 5}, []int{11, 12, 9}
	box := func(lo, hi []int, step int) []float64 { // ref points of the box on the step grid
		var out []float64
		for z := (lo[0] + step - 1) / step * step; z < hi[0]; z += step {
			for y := (lo[1] + step - 1) / step * step; y < hi[1]; y += step {
				for x := (lo[2] + step - 1) / step * step; x < hi[2]; x += step {
					out = append(out, ref[(z*12+y)*12+x])
				}
			}
		}
		return out
	}
	into := make([]T, boxPoints(lo, hi))
	type result struct {
		op   string
		got  []T
		want []float64
		err  error
	}
	var rs []result
	v, err := ReadFieldT[T](ctx, s)
	rs = append(rs, result{"field", v, ref, err})
	v, err = ReadRegionT[T](ctx, s, lo, hi)
	rs = append(rs, result{"region", v, box(lo, hi, 1), err})
	err = ReadRegionIntoT(ctx, s, into, lo, hi)
	rs = append(rs, result{"into", into, box(lo, hi, 1), err})
	for _, level := range []int{1, 2, 3} {
		v, _, err = ReadRegionLevelT[T](ctx, s, make([]int, 3), dims, level)
		rs = append(rs, result{"level", v, box(make([]int, 3), dims, 1<<(level-1)), err})
	}
	for _, r := range rs {
		switch {
		case refuse && (!errors.Is(r.err, qoz.ErrNarrowing) || r.err.Error() != qoz.ErrNarrowing.Error()):
			t.Errorf("%s as %T: error %v, want exactly qoz.ErrNarrowing", r.op, *new(T), r.err)
		case !refuse && r.err != nil:
			t.Errorf("%s as %T: %v", r.op, *new(T), r.err)
		case !refuse && !sameBits(r.got, r.want):
			t.Errorf("%s as %T differs from the native read", r.op, *new(T))
		}
	}
}

// TestKindMatrix runs every operation against both store kinds and, for
// each, every sample type: float32 and float64 and a type defined on each.
// The native kind reads back as itself, a float32 store widens bit-exactly,
// and a float64 store is never narrowed — always refused with the one
// qoz.ErrNarrowing, before any brick is fetched.
func TestKindMatrix(t *testing.T) {
	ctx := context.Background()

	s32 := kindStore[float32](t)
	native32, err := s32.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ref32 := convert[float32, float64](native32)
	readOps[float32](t, s32, ref32, false)
	readOps[float64](t, s32, ref32, false)
	readOps[sample](t, s32, ref32, false)
	readOps[sample64](t, s32, ref32, false)

	s64 := kindStore[float64](t)
	ref64, err := ReadFieldT[float64](ctx, s64)
	if err != nil {
		t.Fatal(err)
	}
	before := s64.Stats().BricksRead
	readOps[float32](t, s64, ref64, true)
	readOps[sample](t, s64, ref64, true)
	if got := s64.Stats().BricksRead; got != before {
		t.Errorf("refused narrowing reads fetched %d bricks", got-before)
	}
	readOps[float64](t, s64, ref64, false)
	readOps[sample64](t, s64, ref64, false)

	// Query speaks float64 for both kinds: counts equal a brute-force scan
	// of the native reference.
	for _, c := range []struct {
		s   *Store
		ref []float64
	}{{s32, ref32}, {s64, ref64}} {
		want := int64(0)
		for _, v := range c.ref {
			if v > 0.25 {
				want++
			}
		}
		res, err := c.s.Query(ctx, QueryRequest{Op: QueryGT, Value: 0.25})
		if err != nil || res.Count != want {
			t.Errorf("%s query: count %d, %v; want %d", c.s.DType(), res.Count, err, want)
		}
	}

	writeOps[float32, float32](t, false)
	writeOps[float32, sample](t, false)
	writeOps[float64, float32](t, false) // float32 input widens into a float64 store
	writeOps[float64, float64](t, false)
	writeOps[float64, sample64](t, false)
	writeOps[float32, float64](t, true)
	writeOps[float32, sample64](t, true)
}

// writeOps appends to and rewrites a mutable store of kind N with data of
// sample type T. Accepted input must produce a file byte-identical to the
// one the same values produce as native N samples (so widening is exact);
// narrowing input must be refused with qoz.ErrNarrowing and commit nothing.
func writeOps[N, T qoz.Float](t *testing.T, refuse bool) {
	t.Helper()
	ctx := context.Background()
	steps := kindField(true)[:4*12*12]
	patch := make([]float64, 2*8*8)
	for i := range patch {
		patch[i] = float64(float32(i) / 64)
	}
	build := func(name string, write func(m *Mutable) error) ([]byte, error) {
		path := filepath.Join(t.TempDir(), name)
		m, err := CreateMutable(path, []int{0, 12, 12}, WriteOptions{
			Opts:    qoz.Options{ErrorBound: 1e-3},
			Brick:   []int{2, 8, 8},
			Float64: elemBytes[N]() == 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := write(m); err != nil {
			return nil, err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, nil
	}
	want, err := build("native", func(m *Mutable) error {
		if err := AppendStepsT(ctx, m, convert[float64, N](steps)); err != nil {
			return err
		}
		return RewriteBricksT(ctx, m, []int{2, 0, 0}, []int{4, 8, 8}, convert[float64, N](patch))
	})
	if err != nil {
		t.Fatalf("native %T writes: %v", *new(N), err)
	}
	got, err := build("typed", func(m *Mutable) error {
		if err := AppendStepsT(ctx, m, convert[float64, T](steps)); err != nil {
			return err
		}
		return RewriteBricksT(ctx, m, []int{2, 0, 0}, []int{4, 8, 8}, convert[float64, T](patch))
	})
	if !refuse {
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T data into a %T store: err %v, file identical to native: %v", *new(T), *new(N), err, bytes.Equal(got, want))
		}
		return
	}
	if !errors.Is(err, qoz.ErrNarrowing) || err.Error() != qoz.ErrNarrowing.Error() {
		t.Errorf("%T append into a %T store: error %v, want exactly qoz.ErrNarrowing", *new(T), *new(N), err)
	}
	_, err = build("rewrite", func(m *Mutable) error {
		if err := AppendStepsT(ctx, m, convert[float64, N](steps)); err != nil {
			t.Fatal(err)
		}
		gen := m.Generation()
		err := RewriteBricksT(ctx, m, []int{2, 0, 0}, []int{4, 8, 8}, convert[float64, T](patch))
		if m.Generation() != gen {
			t.Errorf("refused rewrite committed generation %d", m.Generation())
		}
		return err
	})
	if !errors.Is(err, qoz.ErrNarrowing) || err.Error() != qoz.ErrNarrowing.Error() {
		t.Errorf("%T rewrite of a %T store: error %v, want exactly qoz.ErrNarrowing", *new(T), *new(N), err)
	}
}

// TestWriteFromKinds re-bricks a slab stream of each kind into a store of
// the same kind, slab by slab through qoz.NextSlabT.
func TestWriteFromKinds(t *testing.T) {
	ctx := context.Background()
	check := func(stream []byte, wantF64 bool) {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteFrom(ctx, &buf, qoz.NewDecoder(bytes.NewReader(stream)), WriteOptions{Brick: []int{8, 8, 8}}); err != nil {
			t.Fatal(err)
		}
		s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Float64() != wantF64 {
			t.Errorf("re-bricked store dtype %s from a float64=%v stream", s.DType(), wantF64)
		}
		want, _, err := qoz.Decode[float64](ctx, stream)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFieldT[float64](ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-3*(1+1e-9) {
				t.Fatalf("point %d drifted %g from the stream's reconstruction", i, d)
			}
		}
	}
	f := kindField(true)
	f[5], f[900] = 0, 0 // keep the drift check finite
	s32, err := qoz.Encode(ctx, nil, convert[float64, sample](f), []int{12, 12, 12}, qoz.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	check(s32, false)
	s64, err := qoz.Encode(ctx, nil, convert[float64, sample64](f), []int{12, 12, 12}, qoz.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	check(s64, true)
}

// TestReadRegionIntoChecksBeforeFetching pins the order of the "into"
// body for every kind combination: a destination of the wrong size (or the
// wrong, narrower, kind) is rejected before any brick is fetched.
func TestReadRegionIntoChecksBeforeFetching(t *testing.T) {
	lo, hi := []int{0, 0, 0}, []int{9, 9, 9}
	check := func(name string, s *Store, read func(n int) error, wantText string) {
		t.Helper()
		before := s.Stats().BricksRead
		err := read(9*9*9 - 1)
		if err == nil || !strings.Contains(err.Error(), wantText) {
			t.Errorf("%s: error %v, want one containing %q", name, err, wantText)
		}
		if got := s.Stats().BricksRead; got != before {
			t.Errorf("%s: %d bricks fetched before the destination was rejected", name, got-before)
		}
	}
	ctx := context.Background()
	s32, s64 := kindStore[float32](t), kindStore[float64](t)
	const size = "destination holds 728 points, region has 729"
	check("f32 into f32", s32, func(n int) error { return s32.ReadRegionInto(ctx, make([]float32, n), lo, hi) }, size)
	check("f32 into f64", s32, func(n int) error { return ReadRegionIntoT(ctx, s32, make([]float64, n), lo, hi) }, size)
	check("f64 into f64", s64, func(n int) error { return ReadRegionIntoT(ctx, s64, make([]float64, n), lo, hi) }, size)
	check("f64 into f32", s64, func(n int) error { return s64.ReadRegionInto(ctx, make([]float32, n), lo, hi) }, qoz.ErrNarrowing.Error())
}

// TestReadRegionIntoCachedZeroAllocFloat64 extends the zero-allocation
// guarantee of the cached "into" path to a float64 store read as float64.
func TestReadRegionIntoCachedZeroAllocFloat64(t *testing.T) {
	s := kindStore[float64](t)
	ctx := context.Background()
	lo, hi := []int{1, 1, 1}, []int{11, 11, 11} // all 8 bricks
	dst := make([]float64, boxPoints(lo, hi))
	if err := ReadRegionIntoT(ctx, s, dst, lo, hi); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ReadRegionIntoT(ctx, s, dst, lo, hi); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached float64 ReadRegionIntoT allocates %.1f times per call; want 0", allocs)
	}
}

// TestWriteTRelBoundIgnoresNonFiniteSamples is the store leg of the bound
// table in the root package: WriteT resolves a relative bound against the
// field's finite samples for both kinds, wherever the non-finite ones sit.
func TestWriteTRelBoundIgnoresNonFiniteSamples(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ramp := func(edit func(f []float64)) []float64 {
		f := make([]float64, 64)
		for i := range f {
			f[i] = float64(i) / 4 // range 15.75
		}
		edit(f)
		return f
	}
	fill := func(vals ...float64) func(f []float64) {
		return func(f []float64) {
			for i := range f {
				f[i] = vals[i%len(vals)]
			}
		}
	}
	for _, tc := range []struct {
		name  string
		field []float64
		vr    float64 // finite value range; 0 selects the constant-field bound
	}{
		{"NaN first", ramp(func(f []float64) { f[0] = nan }), 15.5},
		{"NaN middle", ramp(func(f []float64) { f[5] = nan }), 15.75},
		{"+Inf", ramp(func(f []float64) { f[9] = inf }), 15.75},
		{"-Inf", ramp(func(f []float64) { f[63] = -inf }), 15.5},
		{"all non-finite", ramp(fill(nan, inf, -inf)), 0},
		{"constant", ramp(fill(2.5)), 0},
	} {
		writeRelBound[float32](t, tc.name, tc.field, tc.vr, 1e-12)
		writeRelBound[float64](t, tc.name, tc.field, tc.vr, 1e-300)
	}
}

func writeRelBound[T qoz.Float](t *testing.T, name string, field []float64, vr, constBound float64) {
	t.Helper()
	ctx := context.Background()
	want := 1e-2 * vr
	if vr == 0 {
		want = constBound
	}
	var buf bytes.Buffer
	wo := WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{4, 4}}
	if err := WriteT(ctx, &buf, convert[float64, T](field), []int{8, 8}, wo); err != nil {
		t.Errorf("%s as %T: WriteT: %v", name, *new(T), err)
		return
	}
	s, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ErrorBound() != want {
		t.Errorf("%s as %T: store bound %g, want %g", name, *new(T), s.ErrorBound(), want)
	}
	got, err := ReadFieldT[T](ctx, s)
	if err != nil {
		t.Errorf("%s as %T: read back: %v", name, *new(T), err)
		return
	}
	for i, w := range field {
		g := float64(got[i])
		if finite := !math.IsNaN(w) && !math.IsInf(w, 0); finite && !(math.Abs(g-w) <= want) ||
			!finite && math.Float64bits(g) != math.Float64bits(float64(T(w))) {
			t.Errorf("%s as %T: sample %d is %v, want %v within %g", name, *new(T), i, g, w, want)
			return
		}
	}
}
