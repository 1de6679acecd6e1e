package store

// Helpers over the committed fixtures, and the tests that pin the current
// writer's bricks against them. Since PR 22 no code writes the legacy index
// layouts, so every behaviour of their reader is checked through the files
// in testdata/ — one sub-case per version — and what the writer produces is
// held to the last v5 files: same payloads, same level tables, same
// statistics, only the bytes around them differ.

import (
	"bytes"
	"context"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"qoz"
)

// legacyFixtures names the committed stores of the index layouts.
var legacyFixtures = []struct {
	name    string
	version int
	f64     bool
}{
	{"v1_f32", 1, false},
	{"v2_f64", 2, true},
	{"v4_f32", 4, false},
	{"v5_f32", 5, false},
	{"v5_f64", 5, true},
}

// fixtureBytes loads testdata/<name>.qozb.
func fixtureBytes(t testing.TB, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", name+".qozb"))
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	return buf
}

// fixtureCopy writes a private copy of a fixture and returns its path.
func fixtureCopy(t testing.TB, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".qozb")
	if err := os.WriteFile(path, fixtureBytes(t, name), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureField32 and fixtureField64 are the inputs testdata/gen_fixtures.go
// fed the writer of the day to make v5_f32.qozb and v5_f64.qozb (12×12×12,
// brick 8³, bound 1e-3).
func fixtureField32() []float32 {
	d := make([]float32, 12*12*12)
	for i := range d {
		d[i] = float32(math.Sin(float64(i)/11) + math.Cos(float64(i)/7)*0.25)
	}
	return d
}

func fixtureField64() []float64 {
	d := make([]float64, 12*12*12)
	for i := range d {
		d[i] = math.Sin(float64(i)/13)*2 + math.Cos(float64(i)/5)*0.5
	}
	d[100] = math.NaN()
	d[200] = math.Inf(1)
	d[1500] = math.Inf(-1)
	return d
}

var fixtureWriteOptions = WriteOptions{Opts: qoz.Options{ErrorBound: 1e-3}, Brick: []int{8, 8, 8}}

// writeBytes runs WriteT into memory.
func writeBytes[T qoz.Float](t testing.TB, data []T, dims []int, wo WriteOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteT(context.Background(), &buf, data, dims, wo); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// resealJournal returns a copy of a cleanly committed journal whose latest
// manifest went through edit, under a footer recomputed to vouch for the
// result — the way to plant a corrupt extension block that the footer's
// manifestCRC does not give away.
func resealJournal(t testing.TB, valid []byte, edit func(man []byte) []byte) []byte {
	t.Helper()
	footOff := len(valid) - genFooterSize
	ft, err := parseGenFooter(valid[footOff:])
	if err != nil {
		t.Fatalf("journal does not end in a footer: %v", err)
	}
	man := edit(append([]byte(nil), valid[ft.manifestOff:footOff]...))
	ft.manifestLen = int64(len(man))
	ft.manifestCRC = crc32.ChecksumIEEE(man)
	out := append(append([]byte(nil), valid[:ft.manifestOff]...), man...)
	return appendGenFooter(out, ft)
}

// manifestBlocks locates the two extension blocks inside the latest
// manifest of a journal that carries both: their offsets relative to the
// manifest start, the statistics block first.
func manifestBlocks(t testing.TB, valid []byte) (statsOff, levelsOff, manLen int) {
	t.Helper()
	footOff := len(valid) - genFooterSize
	ft, err := parseGenFooter(valid[footOff:])
	if err != nil {
		t.Fatal(err)
	}
	man := valid[ft.manifestOff:footOff]
	statsOff = bytes.Index(man, []byte(statsMagic))
	levelsOff = bytes.LastIndex(man, []byte(levelsMagic))
	if statsOff < 0 || levelsOff < statsOff {
		t.Fatalf("manifest does not carry a statistics block followed by a level block (at %d, %d)", statsOff, levelsOff)
	}
	return statsOff, levelsOff, len(man)
}

// brickRecord is everything a manifest says about one brick, plus the
// payload bytes it points at.
type brickRecord struct {
	payload []byte
	crc     uint32
	levels  []levelSpan
	stat    brickStat
}

// brickRecords reads every brick of s's current manifest.
func brickRecords(t testing.TB, s *Store) []brickRecord {
	t.Helper()
	m := s.man.Load()
	out := make([]brickRecord, len(m.bricks))
	for i, e := range m.bricks {
		p := make([]byte, e.len)
		if _, err := m.ra.ReadAt(p, e.off); err != nil {
			t.Fatalf("brick %d: %v", i, err)
		}
		out[i] = brickRecord{payload: p, crc: e.crc, levels: e.levels, stat: e.stat}
	}
	return out
}

// sameBricks asserts two stores record the same bricks: payload bytes,
// checksums, level tables and statistics, entry for entry.
func sameBricks(t *testing.T, got, want *Store) {
	t.Helper()
	g, w := brickRecords(t, got), brickRecords(t, want)
	if len(g) != len(w) {
		t.Fatalf("%d bricks, want %d", len(g), len(w))
	}
	for i := range g {
		if !bytes.Equal(g[i].payload, w[i].payload) {
			t.Fatalf("brick %d: payload bytes differ (%d vs %d bytes)", i, len(g[i].payload), len(w[i].payload))
		}
		if g[i].crc != w[i].crc || !reflect.DeepEqual(g[i].levels, w[i].levels) {
			t.Fatalf("brick %d: crc/levels %08x %v, want %08x %v", i, g[i].crc, g[i].levels, w[i].crc, w[i].levels)
		}
		// Statistics may hold NaN-free float64s only (finite moments), so
		// DeepEqual compares them exactly.
		if !reflect.DeepEqual(g[i].stat, w[i].stat) {
			t.Fatalf("brick %d: stat %+v, want %+v", i, g[i].stat, w[i].stat)
		}
		if len(g[i].levels) == 0 || !g[i].stat.valid {
			t.Fatalf("brick %d: comparison is vacuous (levels %v, stat valid %v)", i, g[i].levels, g[i].stat.valid)
		}
	}
}

func openBytes(t testing.TB, raw []byte) *Store {
	t.Helper()
	s, err := Open(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestWriteKeepsV5Bricks pins the bricks for good: over the inputs the v5
// fixtures were generated from, today's Write must produce the very
// payloads, level tables and statistics those files hold — the format
// around the bricks changed at PR 22, nothing inside them may.
func TestWriteKeepsV5Bricks(t *testing.T) {
	dims := []int{12, 12, 12}
	t.Run("f32", func(t *testing.T) {
		s := openBytes(t, writeBytes(t, fixtureField32(), dims, fixtureWriteOptions))
		if s.FormatVersion() != 3 || s.Generation() != 1 {
			t.Fatalf("Write produced version %d at generation %d, want the journal (3) at 1", s.FormatVersion(), s.Generation())
		}
		sameBricks(t, s, openBytes(t, fixtureBytes(t, "v5_f32")))
	})
	t.Run("f64", func(t *testing.T) {
		s := openBytes(t, writeBytes(t, fixtureField64(), dims, fixtureWriteOptions))
		sameBricks(t, s, openBytes(t, fixtureBytes(t, "v5_f64")))
	})
}

// TestWriteMatchesCreateAppend: one writer. Writing a field whole and
// creating an empty store then appending the same field must record the
// same bricks entry for entry, on a field that ends on a band boundary and
// on one that ends in a partial band, in both sample kinds.
func TestWriteMatchesCreateAppend(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int
	}{{"band-aligned", 8}, {"partial-band", 10}} {
		t.Run(tc.name+"/f32", func(t *testing.T) { writeVsAppend[float32](t, tc.rows) })
		t.Run(tc.name+"/f64", func(t *testing.T) { writeVsAppend[float64](t, tc.rows) })
	}
}

func writeVsAppend[T qoz.Float](t *testing.T, rows int) {
	const ny, nx = 12, 20
	data := make([]T, rows*ny*nx)
	for i := range data {
		data[i] = T(math.Sin(float64(i)/17) + 1e-9*float64(i%5))
	}
	wo := WriteOptions{Opts: qoz.Options{ErrorBound: 1e-4}, Brick: []int{4, 8, 8}, Float64: elemBytes[T]() == 8}
	written := openBytes(t, writeBytes(t, data, []int{rows, ny, nx}, wo))

	path := filepath.Join(t.TempDir(), "grown.qozb")
	m, err := CreateMutable(path, []int{0, ny, nx}, wo)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := AppendStepsT(context.Background(), m, data); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Dims(), written.Dims()) || m.FormatVersion() != written.FormatVersion() {
		t.Fatalf("appended store: dims %v version %d; written: dims %v version %d",
			m.Dims(), m.FormatVersion(), written.Dims(), written.FormatVersion())
	}
	sameBricks(t, m.Store, written)
}
