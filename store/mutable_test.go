package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"qoz"
)

// stepPlane synthesizes one deterministic ny×nx time step: smooth enough
// to compress, distinct per step index so reads can be attributed.
func stepPlane(t, ny, nx int) []float32 {
	out := make([]float32, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			out[y*nx+x] = float32(t)*10 + float32(math.Sin(float64(y)/7)+math.Cos(float64(x)/5))
		}
	}
	return out
}

// mustNear fails unless got matches want point-wise within tol.
func mustNear[T qoz.Float](t *testing.T, got, want []T, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(float64(got[i]) - float64(want[i])); d > tol {
			t.Fatalf("%s: point %d: |%v-%v| = %g > %g", label, i, got[i], want[i], d, tol)
		}
	}
}

const testBound = 1e-3

// newTestMutable creates a mutable store of ny×nx steps with brick shape
// (b0, 8, 8) under testBound in a temp dir.
func newTestMutable(t *testing.T, b0, ny, nx int) (*Mutable, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "field.qozb")
	m, err := CreateMutable(path, []int{0, ny, nx}, WriteOptions{
		Opts:  qoz.Options{ErrorBound: testBound},
		Brick: []int{b0, 8, 8},
	})
	if err != nil {
		t.Fatalf("CreateMutable: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m, path
}

func TestMutableAppendSteps(t *testing.T) {
	const ny, nx = 16, 24
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)

	if got := m.Dims(); got[0] != 0 {
		t.Fatalf("fresh mutable store has %d steps", got[0])
	}
	if m.Generation() != 1 {
		t.Fatalf("fresh mutable store at generation %d, want 1", m.Generation())
	}

	// Append 1, then 2, then 5 steps: crosses a band boundary at step 4
	// and exercises the partial-band rewrite on both sides.
	var want []float32
	step := 0
	for _, n := range []int{1, 2, 5} {
		var rows []float32
		for i := 0; i < n; i++ {
			p := stepPlane(step, ny, nx)
			rows = append(rows, p...)
			want = append(want, p...)
			step++
		}
		if err := m.AppendSteps(ctx, rows); err != nil {
			t.Fatalf("AppendSteps(%d): %v", n, err)
		}
	}
	if got := m.Dims(); got[0] != step {
		t.Fatalf("store has %d steps after appends, want %d", got[0], step)
	}
	if m.Generation() != 4 {
		t.Fatalf("generation %d after three appends, want 4", m.Generation())
	}

	// Partial bands were recompressed from their reconstruction, so the
	// guarantee is 2x the bound for those points.
	got, err := m.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, got, want, 2*testBound+1e-6, "mutable read")

	// A fresh read-only open (same path) must see the same committed data.
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("OpenFile(mutable store): %v", err)
	}
	defer s.Close()
	if s.Generation() != 4 {
		t.Fatalf("reopened at generation %d, want 4", s.Generation())
	}
	got2, err := s.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("reopened read differs at %d: %v != %v", i, got[i], got2[i])
		}
	}
}

func TestMutableRewriteBricks(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)

	var field []float32
	for s := 0; s < 8; s++ {
		field = append(field, stepPlane(s, ny, nx)...)
	}
	if err := m.AppendSteps(ctx, field); err != nil {
		t.Fatal(err)
	}
	genBefore := m.Generation()

	// Rewrite one whole brick box: steps 4..8, rows 8..16, cols 0..8.
	lo, hi := []int{4, 8, 0}, []int{8, 16, 8}
	patch := make([]float32, 4*8*8)
	for i := range patch {
		patch[i] = 999 + float32(i%5)
	}
	// Misaligned boxes must be refused.
	if err := m.RewriteBricks(ctx, []int{5, 8, 0}, hi, patch); err == nil {
		t.Fatal("misaligned rewrite box accepted")
	}
	// Prime the cache over the to-be-rewritten region first, so a stale
	// cached decode would be caught below.
	if _, err := m.ReadRegion(ctx, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := m.RewriteBricks(ctx, lo, hi, patch); err != nil {
		t.Fatalf("RewriteBricks: %v", err)
	}
	if m.Generation() != genBefore+1 {
		t.Fatalf("generation %d after rewrite, want %d", m.Generation(), genBefore+1)
	}

	got, err := m.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, got, patch, testBound+1e-6, "rewritten brick")

	// Untouched points are bit-identical to the pre-rewrite encoding.
	outside, err := m.ReadRegion(ctx, []int{0, 0, 0}, []int{4, ny, nx})
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, outside, field[:4*ny*nx], testBound+1e-6, "untouched bricks")

	// The previous generation still serves the pre-rewrite data.
	old, err := OpenFile(path, Options{Generation: genBefore})
	if err != nil {
		t.Fatalf("OpenFile(generation %d): %v", genBefore, err)
	}
	defer old.Close()
	oldRegion, err := old.ReadRegion(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	wantOld := make([]float32, 0, len(patch))
	for s := 4; s < 8; s++ {
		plane := stepPlane(s, ny, nx)
		for y := 8; y < 16; y++ {
			wantOld = append(wantOld, plane[y*nx:y*nx+8]...)
		}
	}
	mustNear(t, oldRegion, wantOld, 2*testBound+1e-6, "previous generation")
}

// TestRewriteBricksWorkersByteIdentical: the rewrite compresses its bricks
// on Workers goroutines like every other brick loop, commits the same
// bytes whatever their number, and stops on a cancelled context without
// committing anything.
func TestRewriteBricksWorkersByteIdentical(t *testing.T) {
	const ny, nx = 16, 24 // 2×3 bricks per band of 4 steps
	ctx := context.Background()
	var field, patch []float32
	for s := 0; s < 8; s++ {
		field = append(field, stepPlane(s, ny, nx)...)
		patch = append(patch, stepPlane(100+s, ny, nx)...)
	}
	lo, hi := []int{0, 0, 0}, []int{8, ny, nx} // 12 bricks
	build := func(workers int) (*Mutable, string) {
		path := filepath.Join(t.TempDir(), "field.qozb")
		m, err := CreateMutable(path, []int{0, ny, nx}, WriteOptions{
			Opts:    qoz.Options{ErrorBound: testBound},
			Brick:   []int{4, 8, 8},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if err := m.AppendSteps(ctx, field); err != nil {
			t.Fatal(err)
		}
		return m, path
	}
	var files [][]byte
	for _, workers := range []int{1, 4} {
		m, path := build(workers)
		if err := RewriteBricksT(ctx, m, lo, hi, patch); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := m.ReadRegion(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		mustNear(t, got, patch, testBound+1e-6, "rewritten region")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, raw)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("Workers 1 and 4 committed different files (%d and %d bytes)", len(files[0]), len(files[1]))
	}

	m, path := build(4)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gen := m.Generation()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := RewriteBricksT(cancelled, m, lo, hi, patch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rewrite returned %v", err)
	}
	if m.Generation() != gen {
		t.Fatalf("cancelled rewrite committed generation %d", m.Generation())
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("cancelled rewrite changed the store file (%v)", err)
	}
}

func TestMutableCompact(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)

	var field []float32
	for s := 0; s < 8; s++ {
		plane := stepPlane(s, ny, nx)
		field = append(field, plane...)
		if err := m.AppendSteps(ctx, plane); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	genBefore := m.Generation()

	// Cancelled or successful, a compaction leaves only the store in its
	// directory: the *.compact* temp file is renamed over it or removed.
	onlyTheStore := func(step string) {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
		if err != nil || len(names) != 1 || names[0] != path {
			t.Fatalf("%s: directory holds %v (%v), want only %s", step, names, err, path)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.Compact(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compact returned %v", err)
	}
	onlyTheStore("after a cancelled Compact")
	if st, err := os.Stat(path); err != nil || st.Size() != before.Size() || m.Generation() != genBefore {
		t.Fatalf("a cancelled Compact changed the store (%v)", err)
	}

	if err := m.Compact(ctx); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	onlyTheStore("after Compact")
	if m.Generation() != genBefore+1 {
		t.Fatalf("compacted generation %d, want %d", m.Generation(), genBefore+1)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", before.Size(), after.Size())
	}
	// Compaction copies payloads verbatim: reads are bit-identical.
	got, err := m.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("compacted read differs at %d: %v != %v", i, got[i], want[i])
		}
	}
	// The handle stays mutable across compaction.
	if err := m.AppendSteps(ctx, stepPlane(8, ny, nx)); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	// Old generations are gone.
	if _, err := OpenFile(path, Options{Generation: genBefore}); err == nil {
		t.Fatal("pre-compaction generation still opens after Compact")
	}
	// And a plain reopen sees everything.
	s, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := s.Dims(); d[0] != 9 {
		t.Fatalf("reopened compacted store has %d steps, want 9", d[0])
	}
}

// TestMutableTornCommit pins the journal property: truncating anywhere
// inside the last commit — torn footer, torn manifest, torn payloads —
// falls back to the previous generation instead of failing, and
// OpenMutable reclaims the tail and appends cleanly on top.
func TestMutableTornCommit(t *testing.T) {
	const ny, nx = 16, 16
	ctx := context.Background()
	m, path := newTestMutable(t, 4, ny, nx)
	if err := m.AppendSteps(ctx, stepPlane(0, ny, nx)); err != nil {
		t.Fatal(err)
	}
	want, err := m.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	genGood := m.Generation()
	endGood := m.end
	if err := m.AppendSteps(ctx, stepPlane(1, ny, nx)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point inside the final commit must reopen at the
	// previous generation with its data intact.
	for _, cut := range []int64{
		int64(len(whole)) - 1,                      // torn footer
		int64(len(whole)) - int64(genFooterSize),   // footer missing entirely
		int64(len(whole)) - int64(genFooterSize)/2, // half a footer
		endGood + 3, // torn payloads
	} {
		s, err := Open(bytes.NewReader(whole[:cut]), cut, Options{})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		if s.Generation() != genGood {
			t.Fatalf("cut at %d: opened generation %d, want fallback to %d", cut, s.Generation(), genGood)
		}
		got, err := s.ReadField(ctx)
		if err != nil {
			t.Fatalf("cut at %d: read: %v", cut, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut at %d: fallback read differs at %d", cut, i)
			}
		}
		s.Close()
	}

	// OpenMutable on a torn file truncates the tail and appends on top.
	if err := os.WriteFile(path, whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenMutable(path, Options{})
	if err != nil {
		t.Fatalf("OpenMutable(torn): %v", err)
	}
	defer m2.Close()
	if m2.Generation() != genGood {
		t.Fatalf("torn reopen at generation %d, want %d", m2.Generation(), genGood)
	}
	if err := m2.AppendSteps(ctx, stepPlane(7, ny, nx)); err != nil {
		t.Fatalf("append after torn reopen: %v", err)
	}
	if d := m2.Dims(); d[0] != 2 {
		t.Fatalf("store has %d steps after torn-reopen append, want 2", d[0])
	}
}

func TestMutableFloat64(t *testing.T) {
	const ny, nx = 12, 12
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "field64.qozb")
	m, err := CreateMutable(path, []int{0, ny, nx}, WriteOptions{
		Opts:    qoz.Options{ErrorBound: 1e-6},
		Brick:   []int{2, 8, 8},
		Float64: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Float64() || m.DType() != "float64" {
		t.Fatalf("Float64 mutable store reports dtype %q", m.DType())
	}
	// Samples only ever widen: float32 steps are taken by a float64 store
	// exactly (the narrowing direction is refused; see TestKindMatrix).
	// One whole band of steps, so the next append recompresses nothing.
	band := append(stepPlane(0, ny, nx), stepPlane(1, ny, nx)...)
	if err := m.AppendSteps(ctx, band); err != nil {
		t.Fatalf("float32 append into a float64 store: %v", err)
	}
	want := make([]float64, 4*ny*nx)
	for i := range want {
		want[i] = 1e-7 * float64(i) * math.Pi
		if i < len(band) {
			want[i] = float64(band[i])
		}
	}
	if err := AppendStepsT(ctx, m, want[len(band):]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFieldT[float64](ctx, m.Store)
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, got, want, 1e-6+1e-12, "float64 mutable read")
}

// TestMutableConcurrentAppendRead races a writer appending steps against
// readers sweeping regions: every read must see a whole committed
// generation (its declared dims fully readable, values within bound) —
// run under -race this also proves the snapshot handoff is clean.
func TestMutableConcurrentAppendRead(t *testing.T) {
	const ny, nx, steps = 8, 8, 12
	ctx := context.Background()
	m, _ := newTestMutable(t, 2, ny, nx)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := m.Dims()
				if d[0] == 0 {
					continue
				}
				got, err := m.ReadRegion(ctx, []int{0, 0, 0}, d)
				if err != nil {
					errc <- err
					return
				}
				// Attribute each step's plane back to its index: committed
				// data only, within the (2x, partial-band) bound.
				for s := 0; s < d[0]; s++ {
					v := float64(got[s*ny*nx])
					want := float64(stepPlane(s, ny, nx)[0])
					if math.Abs(v-want) > 2*testBound+1e-6 {
						errc <- err
						return
					}
				}
			}
		}()
	}
	for s := 0; s < steps; s++ {
		if err := m.AppendSteps(ctx, stepPlane(s, ny, nx)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent read failed: %v", err)
	default:
	}
}

// TestOpenMutableRefusesV2 pins the version gate with its guidance: every
// legacy index layout is refused, and refused before anything is touched.
func TestOpenMutableRefusesV2(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			path := fixtureCopy(t, fx.name)
			_, err := OpenMutable(path, Options{})
			if err == nil {
				t.Fatalf("OpenMutable accepted a v%d index store", fx.version)
			}
			if !strings.Contains(err.Error(), "qozc put") {
				t.Fatalf("refusal does not say how to get a mutable store: %v", err)
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, fixtureBytes(t, fx.name)) {
				t.Fatalf("refused store was modified (read err %v)", rerr)
			}
		})
	}
}

// TestOpenMutableGrowsWrittenStore: one format. A store Write produced is
// generation 1 of a journal, so OpenMutable appends to it, rewrites it and
// compacts it like one CreateMutable started — and generation 1 stays
// readable until the compaction.
func TestOpenMutableGrowsWrittenStore(t *testing.T) {
	ctx := context.Background()
	const ny, nx = 16, 24
	var field []float32
	for s := 0; s < 4; s++ {
		field = append(field, stepPlane(s, ny, nx)...)
	}
	path := filepath.Join(t.TempDir(), "written.qozb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(ctx, f, field, []int{4, ny, nx}, WriteOptions{
		Opts: qoz.Options{ErrorBound: testBound}, Brick: []int{4, 8, 8}}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err := OpenMutable(path, Options{})
	if err != nil {
		t.Fatalf("OpenMutable on a Write-made store: %v", err)
	}
	defer m.Close()
	if m.Generation() != 1 || m.FormatVersion() != 3 {
		t.Fatalf("Write-made store opened at generation %d, version %d", m.Generation(), m.FormatVersion())
	}
	if err := m.AppendSteps(ctx, stepPlane(4, ny, nx)); err != nil {
		t.Fatalf("AppendSteps: %v", err)
	}
	if m.Generation() != 2 || m.Dims()[0] != 5 {
		t.Fatalf("after append: generation %d, %d steps", m.Generation(), m.Dims()[0])
	}
	got, err := m.ReadField(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mustNear(t, got, append(append([]float32(nil), field...), stepPlane(4, ny, nx)...), testBound, "grown field")

	old, err := OpenFile(path, Options{Generation: 1})
	if err != nil {
		t.Fatalf("generation 1 after the append: %v", err)
	}
	gen1, err := old.ReadField(ctx)
	old.Close()
	if err != nil || len(gen1) != len(field) {
		t.Fatalf("generation 1 read %d points (err %v), want %d", len(gen1), err, len(field))
	}
	mustNear(t, gen1, field, testBound, "generation 1")

	if err := m.Compact(ctx); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if m.Generation() != 3 {
		t.Fatalf("after compact: generation %d", m.Generation())
	}
	if _, err := OpenFile(path, Options{Generation: 1}); err == nil {
		t.Fatal("generation 1 still reachable after compaction")
	}
}

// TestCompactKeepsFileMode: a replacement keeps the mode of the file it
// replaces. Compacting a store its owner tightened to 0600 must not widen
// it (and one left at the default 0644 must not be tightened to
// CreateTemp's 0600, or a server under another uid loses the mount).
func TestCompactKeepsFileMode(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []os.FileMode{0o600, 0o644} {
		m, path := newTestMutable(t, 2, 8, 8)
		if err := m.AppendSteps(ctx, stepPlane(0, 8, 8)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(path, mode); err != nil {
			t.Fatal(err)
		}
		if err := m.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Mode().Perm(); got != mode {
			t.Fatalf("compacting a %04o store left it %04o", mode, got)
		}
	}
}

// TestV3Gen4FixtureAcceptsAppend: a journal written before either
// extension block existed (bare manifests) is still a journal. A copy of
// the committed fixture must accept an append through OpenMutable, and the
// four generations it already held must stay readable, bit for bit.
func TestV3Gen4FixtureAcceptsAppend(t *testing.T) {
	ctx := context.Background()
	raw := fixtureBytes(t, "v3_gen4")
	pristine := openBytes(t, raw)
	var want [5][]float32
	for gen := uint64(1); gen <= 4; gen++ {
		s, err := Open(bytes.NewReader(raw), int64(len(raw)), Options{Generation: gen})
		if err != nil {
			t.Fatalf("generation %d of the pristine fixture: %v", gen, err)
		}
		if s.Dims()[0] > 0 {
			if want[gen], err = s.ReadField(ctx); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}

	path := fixtureCopy(t, "v3_gen4")
	m, err := OpenMutable(path, Options{})
	if err != nil {
		t.Fatalf("OpenMutable: %v", err)
	}
	dims := m.Dims()
	step := make([]float32, dims[1]*dims[2])
	for i := range step {
		step[i] = float32(i%11) * 0.25
	}
	if err := m.AppendSteps(ctx, step); err != nil {
		t.Fatalf("AppendSteps: %v", err)
	}
	if m.Generation() != 5 || m.Dims()[0] != pristine.Dims()[0]+1 {
		t.Fatalf("after append: generation %d, dims %v", m.Generation(), m.Dims())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 4; gen++ {
		s, err := OpenFile(path, Options{Generation: gen})
		if err != nil {
			t.Fatalf("generation %d after the append: %v", gen, err)
		}
		if s.Dims()[0] > 0 {
			got, err := s.ReadField(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want[gen]) {
				t.Fatalf("generation %d: %d points, had %d", gen, len(got), len(want[gen]))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[gen][i]) {
					t.Fatalf("generation %d point %d changed under the append", gen, i)
				}
			}
		}
		s.Close()
	}
}
