package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qoz"
	"qoz/datagen"
)

// FuzzOpen feeds mangled store files through Open and a full region read.
// Corrupt manifests, indexes, and brick payloads must produce errors —
// never a panic, and never an allocation driven by unvalidated declared
// sizes (the 64 MiB -test.timeout/OOM backstop would catch one).
func FuzzOpen(f *testing.F) {
	ds := datagen.NYX(12, 12, 12)
	var buf bytes.Buffer
	if err := Write(context.Background(), &buf, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{8, 8, 8}}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	// Seeds with a mangled footer and a mangled header.
	mut := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(mut[len(mut)-footerSize:], 1<<60)
	f.Add(mut)
	mut = append([]byte(nil), valid...)
	for i := 6; i < 14 && i < len(mut); i++ {
		mut[i] = 0xff
	}
	f.Add(mut)

	// A valid v2 float64 store, so the fuzzer explores the envelope brick
	// path too.
	d64 := make([]float64, 12*12*12)
	for i := range d64 {
		d64[i] = float64(ds.Data[i]) + 1e-9*float64(i%7)
	}
	var buf64 bytes.Buffer
	if err := WriteT(context.Background(), &buf64, d64, ds.Dims,
		WriteOptions{Opts: qoz.Options{ErrorBound: 1e-6}, Brick: []int{8, 8, 8}}); err != nil {
		f.Fatal(err)
	}
	valid64 := buf64.Bytes()
	f.Add(valid64)
	f.Add(valid64[:len(valid64)/2])
	// Element-kind mutations: the kind byte at magic+3 flipped on both
	// stores (f32 header claiming f64 bricks and vice versa — payload
	// framing then contradicts the manifest), a hostile kind value, and a
	// version downgrade on an f64 store (v1 never carried kind 1 and must
	// be rejected at parse).
	kindOff := len(magic) + 3
	for _, seed := range [][]byte{valid, valid64} {
		for _, k := range []byte{0, 1, 2, 0xff} {
			mut = append([]byte(nil), seed...)
			mut[kindOff] = k
			f.Add(mut)
		}
	}
	mut = append([]byte(nil), valid64...)
	mut[len(magic)] = formatVersionV1
	f.Add(mut)

	// A valid v3 mutable store with a three-generation history (create,
	// append, append-across-a-band-boundary), plus torn and mangled
	// variants of its generation tail: a truncated footer must fall back
	// to the previous generation, mangled footer/manifest bytes must
	// never panic or over-allocate, and a version downgrade must reject
	// the zero time extent v3 legitimizes.
	v3Path := filepath.Join(f.TempDir(), "v3.qozb")
	m, err := CreateMutable(v3Path, []int{0, 12, 12}, WriteOptions{
		Opts:  qoz.Options{ErrorBound: 1e-2},
		Brick: []int{2, 8, 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	rows := make([]float32, 3*12*12)
	for i := range rows {
		rows[i] = float32(i % 17)
	}
	if err := m.AppendSteps(context.Background(), rows); err != nil {
		f.Fatal(err)
	}
	if err := m.AppendSteps(context.Background(), rows[:2*12*12]); err != nil {
		f.Fatal(err)
	}
	m.Close()
	valid3, err := os.ReadFile(v3Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid3)
	// Truncations tearing the final commit at every interesting depth:
	// inside the footer, exactly before it, and into its payloads.
	for _, cut := range []int{1, genFooterSize / 2, genFooterSize, genFooterSize + 7, genFooterSize + 200} {
		if cut < len(valid3) {
			f.Add(append([]byte(nil), valid3[:len(valid3)-cut]...))
		}
	}
	// Bit flips across the footer fields (offsets, gen, prev, CRCs) and
	// the manifest magic.
	for off := len(valid3) - genFooterSize; off < len(valid3); off += 4 {
		mut = append([]byte(nil), valid3...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	mut = append([]byte(nil), valid3...)
	mut[len(magic)] = formatVersion // write-once versions never allow a zero time extent
	f.Add(mut)

	// Statistics-block corruptions on the v5 store (`valid` above): the
	// block sits between the last index entry and the footer, so these
	// seeds steer the fuzzer at the degrade path — a bad block must never
	// panic and must open with nil statistics, not wrong ones. The v3
	// store's manifests carry the same block as a trailing extension; flip
	// bytes near the committed manifest tail too.
	nb := specNumBricks(ds.Dims, []int{8, 8, 8})
	statsOff := len(valid) - footerSize - statsBlockSize(nb)
	for _, off := range []int{statsOff, statsOff + 2, statsOff + len(statsMagic), statsOff + len(statsMagic) + statRecordSize/2, len(valid) - footerSize - 1} {
		mut = append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// A spliced-out chunk of the block: the index span shrinks, the block
	// no longer sizes out, and the reader must degrade.
	mut = append([]byte(nil), valid[:statsOff+5]...)
	mut = append(mut, valid[len(valid)-footerSize:]...)
	f.Add(mut)
	for _, back := range []int{1, statRecordSize, statsBlockSize(nb) / 2} {
		mut = append([]byte(nil), valid3...)
		mut[len(valid3)-genFooterSize-back] ^= 0xff
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(bytes.NewReader(data), int64(len(data)), Options{CacheBytes: -1})
		if err != nil {
			return
		}
		// An accepted manifest must still read back sanely or error cleanly,
		// through the read path matching its declared element kind.
		n := 1
		for _, d := range s.Dims() {
			n *= d
		}
		var vals []float64
		if s.Float64() {
			got, err := ReadFieldT[float64](context.Background(), s)
			if err != nil {
				return
			}
			if len(got) != n {
				t.Fatalf("ReadFieldT[float64] returned %d points for dims %v", len(got), s.Dims())
			}
			vals = got
		} else {
			got, err := s.ReadField(context.Background())
			if err != nil {
				return
			}
			if len(got) != n {
				t.Fatalf("ReadField returned %d points for dims %v", len(got), s.Dims())
			}
			vals = make([]float64, len(got))
			for i, v := range got {
				vals[i] = float64(v)
			}
		}
		// Whatever the statistics block decayed into, a query must agree
		// with the brute-force scan of the very values just read — a wrong
		// answer from a mangled index is a correctness bug, not corruption.
		res, err := s.Query(context.Background(), QueryRequest{Op: QueryGT, Value: 0.5})
		if err != nil {
			return
		}
		var want int64
		for _, v := range vals {
			if v > 0.5 {
				want++
			}
		}
		if res.Count != want {
			t.Fatalf("query counted %d points > 0.5, brute force %d", res.Count, want)
		}
	})
}

// TestMutateEveryByte mutates single bytes of a valid store at every
// offset and asserts the reader either errors or returns the right shape —
// a deterministic sweep of the same property FuzzOpen explores randomly.
func TestMutateEveryByte(t *testing.T) {
	ds := datagen.NYX(8, 8, 8)
	var buf bytes.Buffer
	if err := Write(context.Background(), &buf, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{4, 4, 4}}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for off := 0; off < len(valid); off++ {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x5a
		s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
		if err != nil {
			continue
		}
		got, err := s.ReadField(context.Background())
		if err != nil {
			continue
		}
		n := 1
		for _, d := range s.Dims() {
			n *= d
		}
		if len(got) != n {
			t.Fatalf("offset %d: mutated store read %d points for dims %v", off, len(got), s.Dims())
		}
	}
}

// TestCorruptStatsDegrade pins the statistics-block failure contract
// deterministically: a block with a bad CRC, bad magic, or missing bytes
// opens with no statistics at all, a CRC-valid block holding a
// structurally impossible record invalidates just that record — and in
// every case queries stay bit-identical to the pristine store's, with
// pruning simply lost, never wrong.
func TestCorruptStatsDegrade(t *testing.T) {
	ds := datagen.NYX(12, 12, 12)
	var buf bytes.Buffer
	if err := Write(context.Background(), &buf, ds.Data, ds.Dims,
		WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{8, 8, 8}}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	nb := specNumBricks(ds.Dims, []int{8, 8, 8})
	blk := statsBlockSize(nb)
	statsOff := len(valid) - footerSize - blk

	queries := []QueryRequest{
		{Op: QueryGT, Value: 0.5, MaxLocations: 10},
		{Op: QueryLT, Value: -2},
		{Op: QueryMax},
		{Op: QueryMin},
		{Op: QueryHist, Low: -1, High: 1, Bins: 8},
	}
	run := func(t *testing.T, data []byte) []*QueryResult {
		t.Helper()
		s, err := Open(bytes.NewReader(data), int64(len(data)), Options{})
		if err != nil {
			t.Fatalf("corrupt statistics must degrade, not fail open: %v", err)
		}
		defer s.Close()
		out := make([]*QueryResult, len(queries))
		for i, q := range queries {
			r, err := s.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			out[i] = r
		}
		return out
	}
	want := run(t, valid)

	// Semantic fields must match the pristine store exactly; the pruning
	// counters are exactly what a degraded index is allowed to change.
	check := func(t *testing.T, got []*QueryResult) {
		t.Helper()
		for i := range got {
			g, w := *got[i], *want[i]
			g.BricksPruned, g.BricksDecoded = w.BricksPruned, w.BricksDecoded
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("query %d answer changed under a corrupt index:\ngot  %+v\nwant %+v", i, g, w)
			}
		}
	}

	t.Run("crc-flip", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[len(valid)-footerSize-1] ^= 0xff
		s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.HasBrickStats() {
			t.Fatal("CRC-mismatched statistics block survived open")
		}
		s.Close()
		check(t, run(t, mut))
	})
	t.Run("magic-flip", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[statsOff] ^= 0xff
		s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.HasBrickStats() {
			t.Fatal("wrong-magic statistics block survived open")
		}
		s.Close()
		check(t, run(t, mut))
	})
	t.Run("truncated-block", func(t *testing.T) {
		mut := append([]byte(nil), valid[:statsOff+blk-7]...)
		mut = append(mut, valid[len(valid)-footerSize:]...)
		s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.HasBrickStats() {
			t.Fatal("short statistics block survived open")
		}
		s.Close()
		check(t, run(t, mut))
	})
	t.Run("implausible-record", func(t *testing.T) {
		// Record 0's count contradicts the brick geometry, but the CRC is
		// recomputed so the block as a whole is accepted: only that record
		// may be disbelieved.
		mut := append([]byte(nil), valid...)
		rec := statsOff + len(statsMagic)
		binary.LittleEndian.PutUint64(mut[rec+25:], 1<<40)
		crc := crc32.ChecksumIEEE(mut[statsOff : statsOff+blk-4])
		binary.LittleEndian.PutUint32(mut[statsOff+blk-4:], crc)
		s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !s.HasBrickStats() {
			t.Fatal("a CRC-valid block with one bad record must keep its good records")
		}
		if _, ok := s.BrickStats(0); ok {
			t.Fatal("structurally impossible record believed")
		}
		if _, ok := s.BrickStats(1); !ok {
			t.Fatal("good record discarded alongside the bad one")
		}
		s.Close()
		check(t, run(t, mut))
	})
}
