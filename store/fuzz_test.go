package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
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
	// What Write produces: a one-generation journal whose manifest carries
	// both extension blocks.
	valid := writeBytes(f, ds.Data, ds.Dims, WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{8, 8, 8}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	// Seeds with a mangled footer (an absurd manifest offset) and a mangled
	// header.
	mut := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(mut[len(mut)-genFooterSize:], 1<<60)
	f.Add(mut)
	mut = append([]byte(nil), valid...)
	for i := 6; i < 14 && i < len(mut); i++ {
		mut[i] = 0xff
	}
	f.Add(mut)

	// A valid float64 store, so the fuzzer explores the envelope brick
	// path too.
	d64 := make([]float64, 12*12*12)
	for i := range d64 {
		d64[i] = float64(ds.Data[i]) + 1e-9*float64(i%7)
	}
	valid64 := writeBytes(f, d64, ds.Dims, WriteOptions{Opts: qoz.Options{ErrorBound: 1e-6}, Brick: []int{8, 8, 8}})
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

	// A mutable store with a three-generation history (create, append,
	// append-across-a-band-boundary), plus torn and mangled variants of its
	// generation tail: a truncated footer must fall back to the previous
	// generation, mangled footer/manifest bytes must never panic or
	// over-allocate, and a version change to an index layout must reject
	// the zero time extent only the journal legitimizes.
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
	mut[len(magic)] = formatVersionV5 // index layouts never allow a zero time extent
	f.Add(mut)

	// Statistics-block corruptions on the v5 fixture: the block sits between
	// the last index entry and the footer, so these seeds steer the fuzzer
	// at the degrade path — a bad block must never panic and must open with
	// no statistics, not wrong ones.
	v5 := fixtureBytes(f, "v5_f32")
	nb := specNumBricks(ds.Dims, []int{8, 8, 8})
	statsOff := len(v5) - footerSize - statsBlockSize(nb)
	for _, off := range []int{statsOff, statsOff + 2, statsOff + len(statsMagic), statsOff + len(statsMagic) + statRecordSize/2, len(v5) - footerSize - 1} {
		mut = append([]byte(nil), v5...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// A spliced-out chunk of the block: the index span shrinks, the block
	// no longer sizes out, and the reader must degrade.
	mut = append([]byte(nil), v5[:statsOff+5]...)
	mut = append(mut, v5[len(v5)-footerSize:]...)
	f.Add(mut)
	// The journal's manifests end in the same block followed by the level
	// block; flip bytes near the committed manifest tail (the footer's
	// manifestCRC then fails and the open falls back a generation).
	for _, back := range []int{1, statRecordSize, statsBlockSize(nb) / 2} {
		mut = append([]byte(nil), valid3...)
		mut[len(valid3)-genFooterSize-back] ^= 0xff
		f.Add(mut)
	}

	// Every legacy index layout, whole, halved, and with its footer's index
	// offset mangled: since PR 22 these committed files are the only
	// examples of their formats.
	for _, fx := range legacyFixtures {
		raw := fixtureBytes(f, fx.name)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		mut = append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(mut[len(mut)-footerSize:], 1<<60)
		f.Add(mut)
	}

	// The journal's extension blocks, corrupted underneath a footer that
	// still vouches for the manifest: flips inside each block, a manifest
	// with the level block only, and a truncated level block. All must open
	// (extensions degrade, never fail) and read back right.
	sOff, lOff, manLen := manifestBlocks(f, valid)
	for _, off := range []int{sOff, sOff + len(statsMagic) + 3, lOff - 1, lOff, lOff + len(levelsMagic), lOff + len(levelsMagic) + 9, manLen - 1} {
		f.Add(resealJournal(f, valid, func(man []byte) []byte { man[off] ^= 0xff; return man }))
	}
	f.Add(resealJournal(f, valid, func(man []byte) []byte { return append(man[:sOff], man[lOff:]...) }))
	f.Add(resealJournal(f, valid, func(man []byte) []byte { return man[:manLen-7] }))
	f.Add(resealJournal(f, valid, func(man []byte) []byte { return man[:lOff+len(levelsMagic)+1] }))

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
		// Likewise for whatever the level block decayed into: a coarse read
		// must return the stride sample of the values just read.
		lo := make([]int, len(s.Dims()))
		coarse, _, err := ReadRegionLevelT[float64](context.Background(), s, lo, s.Dims(), 2)
		if err != nil {
			return
		}
		wantCoarse, _ := sampleRegionStride(vals, lo, s.Dims(), 2)
		if len(coarse) != len(wantCoarse) {
			t.Fatalf("level-2 read returned %d points, stride sample has %d", len(coarse), len(wantCoarse))
		}
		for i := range wantCoarse {
			if math.Float64bits(coarse[i]) != math.Float64bits(wantCoarse[i]) {
				t.Fatalf("level-2 point %d = %v, full read says %v", i, coarse[i], wantCoarse[i])
			}
		}
	})
}

// readAnyKind reads the whole field in the store's own sample kind and
// returns how many points came back.
func readAnyKind(s *Store) (int, error) {
	if s.Float64() {
		got, err := ReadFieldT[float64](context.Background(), s)
		return len(got), err
	}
	got, err := s.ReadField(context.Background())
	return len(got), err
}

// TestMutateEveryByte mutates single bytes of a valid store at every
// offset and asserts the reader either errors or returns the right shape —
// a deterministic sweep of the same property FuzzOpen explores randomly,
// over a Write-made journal and over every legacy index layout.
func TestMutateEveryByte(t *testing.T) {
	ds := datagen.NYX(8, 8, 8)
	stores := map[string][]byte{
		"journal": writeBytes(t, ds.Data, ds.Dims, WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{4, 4, 4}}),
	}
	for _, fx := range legacyFixtures {
		stores[fx.name] = fixtureBytes(t, fx.name)
	}
	for name, valid := range stores {
		t.Run(name, func(t *testing.T) {
			// Every byte that is not brick payload — the header in front, the
			// index or manifest and the footer behind — is mutated; across
			// the payloads of the legacy fixtures, where any flip ends in the
			// same checksum mismatch whatever the version, every 13th is
			// (the sweep otherwise takes half a minute under -race).
			step := func(off int) int {
				if name == "journal" || off < 64 || off >= len(valid)-1024 {
					return 1
				}
				return 13
			}
			for off := 0; off < len(valid); off += step(off) {
				mut := append([]byte(nil), valid...)
				mut[off] ^= 0x5a
				s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
				if err != nil {
					continue
				}
				got, err := readAnyKind(s)
				if err != nil {
					continue
				}
				n := 1
				for _, d := range s.Dims() {
					n *= d
				}
				if got != n {
					t.Fatalf("offset %d: mutated store read %d points for dims %v", off, got, s.Dims())
				}
			}
		})
	}
}

// corruptibleStore is a valid store plus the way to swap one of its
// manifest extension blocks for an edited copy without tripping anything
// but the block's own validation.
type corruptibleStore struct {
	name    string
	valid   []byte
	replace func(edit func(blk []byte) []byte) []byte
}

// statsCorruptible returns the stores TestCorruptStatsDegrade runs over:
// a Write-made journal (the block sits inside the manifest, before the
// level block; the footer is resealed over the edit) and the two v5
// fixtures (the block sits between the last index entry and the footer).
func statsCorruptible(t *testing.T) []corruptibleStore {
	ds := datagen.NYX(12, 12, 12)
	journal := writeBytes(t, ds.Data, ds.Dims, WriteOptions{Opts: qoz.Options{RelBound: 1e-2}, Brick: []int{8, 8, 8}})
	sOff, lOff, _ := manifestBlocks(t, journal)
	out := []corruptibleStore{{"journal", journal, func(edit func([]byte) []byte) []byte {
		return resealJournal(t, journal, func(man []byte) []byte {
			blk := edit(append([]byte(nil), man[sOff:lOff]...))
			return append(append(append([]byte(nil), man[:sOff]...), blk...), man[lOff:]...)
		})
	}}}
	for _, name := range []string{"v5_f32", "v5_f64"} {
		valid := fixtureBytes(t, name)
		statsOff := len(valid) - footerSize - statsBlockSize(8)
		out = append(out, corruptibleStore{name, valid, func(edit func([]byte) []byte) []byte {
			blk := edit(append([]byte(nil), valid[statsOff:len(valid)-footerSize]...))
			return append(append(append([]byte(nil), valid[:statsOff]...), blk...), valid[len(valid)-footerSize:]...)
		}})
	}
	return out
}

// TestCorruptStatsDegrade pins the statistics-block failure contract
// deterministically: a block with a bad CRC, bad magic, or missing bytes
// opens with no statistics at all, a CRC-valid block holding a
// structurally impossible record invalidates just that record — and in
// every case queries stay bit-identical to the pristine store's, with
// pruning simply lost, never wrong.
func TestCorruptStatsDegrade(t *testing.T) {
	queries := []QueryRequest{
		{Op: QueryGT, Value: 0.5, MaxLocations: 10},
		{Op: QueryLT, Value: -2},
		{Op: QueryMax},
		{Op: QueryMin},
		{Op: QueryHist, Low: -1, High: 1, Bins: 8},
	}
	run := func(t *testing.T, s *Store) []*QueryResult {
		t.Helper()
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
	// Each case corrupts the block of every store; after the edit the store
	// must open, report what the case expects of its statistics, and answer
	// every query as the pristine store does. The pruning counters are
	// exactly what a degraded index is allowed to change.
	cases := []struct {
		name  string
		edit  func(blk []byte) []byte
		check func(t *testing.T, s *Store)
	}{
		{"crc-flip", func(blk []byte) []byte { blk[len(blk)-1] ^= 0xff; return blk }, nil},
		{"magic-flip", func(blk []byte) []byte { blk[0] ^= 0xff; return blk }, nil},
		{"truncated-block", func(blk []byte) []byte { return blk[:len(blk)-7] }, nil},
		{"implausible-record", func(blk []byte) []byte {
			// Record 0's count contradicts the brick geometry, but the CRC is
			// recomputed so the block as a whole is accepted: only that record
			// may be disbelieved.
			binary.LittleEndian.PutUint64(blk[len(statsMagic)+25:], 1<<40)
			binary.LittleEndian.PutUint32(blk[len(blk)-4:], crc32.ChecksumIEEE(blk[:len(blk)-4]))
			return blk
		}, func(t *testing.T, s *Store) {
			if !s.HasBrickStats() {
				t.Fatal("a CRC-valid block with one bad record must keep its good records")
			}
			if _, ok := s.BrickStats(0); ok {
				t.Fatal("structurally impossible record believed")
			}
			if _, ok := s.BrickStats(1); !ok {
				t.Fatal("good record discarded alongside the bad one")
			}
		}},
	}
	stores := statsCorruptible(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, st := range stores {
				t.Run(st.name, func(t *testing.T) {
					pristine := openBytes(t, st.valid)
					if !pristine.HasBrickStats() {
						t.Fatal("pristine store carries no statistics; the case would be vacuous")
					}
					want := run(t, pristine)
					mut := st.replace(tc.edit)
					s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
					if err != nil {
						t.Fatalf("corrupt statistics must degrade, not fail open: %v", err)
					}
					defer s.Close()
					if tc.check != nil {
						tc.check(t, s)
					} else if s.HasBrickStats() {
						t.Fatal("invalid statistics block survived open")
					}
					for i, g := range run(t, s) {
						g, w := *g, *want[i]
						g.BricksPruned, g.BricksDecoded = w.BricksPruned, w.BricksDecoded
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("query %d answer changed under a corrupt index:\ngot  %+v\nwant %+v", i, g, w)
						}
					}
				})
			}
		})
	}
}

// TestCorruptLevelsDegrade is the same contract for the journal's
// level-table block: a bad CRC, bad magic, missing bytes, or a table whose
// spans do not increase strictly below the payload length drops every
// table — never an open error — and every level read stays bit-identical
// to the pristine store's, with the prefix-fetch saving simply lost. The
// statistics block in front of it is untouched and must survive.
func TestCorruptLevelsDegrade(t *testing.T) {
	ctx := context.Background()
	ds := datagen.NYX(32, 32, 16)
	valid := writeBytes(t, ds.Data, ds.Dims, WriteOptions{Opts: qoz.Options{RelBound: 1e-3}, Brick: []int{16, 16, 16}})
	pristine := openBytes(t, valid)
	lo := []int{0, 0, 0}
	var want [][]float32
	for level := 1; level <= 5; level++ {
		v, _, err := pristine.ReadRegionLevel(ctx, lo, ds.Dims, level)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	if len(pristine.BrickLevels(0)) < 2 {
		t.Fatalf("pristine store records no usable level table (%v); the test would be vacuous", pristine.BrickLevels(0))
	}
	_, lOff, _ := manifestBlocks(t, valid)
	// reblock serializes a level block over the pristine entries after
	// doctor has had its way with a copy of them.
	reblock := func(doctor func(bricks []brickEntry)) func([]byte) []byte {
		return func([]byte) []byte {
			bricks := append([]brickEntry(nil), pristine.man.Load().bricks...)
			for i := range bricks {
				bricks[i].levels = append([]levelSpan(nil), bricks[i].levels...)
			}
			doctor(bricks)
			return appendLevelsBlock(nil, bricks)
		}
	}
	for _, tc := range []struct {
		name string
		edit func(blk []byte) []byte
	}{
		{"crc-flip", func(blk []byte) []byte { blk[len(blk)-1] ^= 0xff; return blk }},
		{"magic-flip", func(blk []byte) []byte { blk[0] ^= 0xff; return blk }},
		{"body-flip", func(blk []byte) []byte { blk[len(blk)/2] ^= 0xff; return blk }},
		{"truncated-block", func(blk []byte) []byte { return blk[:len(blk)-7] }},
		{"trailing-bytes", func(blk []byte) []byte { return append(blk, 0, 0, 0) }},
		{"non-increasing-span", reblock(func(b []brickEntry) { b[1].levels[1].bytes = b[1].levels[0].bytes })},
		{"span-reaches-payload-end", reblock(func(b []brickEntry) { t := b[2].levels; t[len(t)-2].bytes = b[2].len })},
		{"too-many-levels", reblock(func(b []brickEntry) { b[0].levels = make([]levelSpan, maxLevelEntries+2) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := resealJournal(t, valid, func(man []byte) []byte {
				return append(man[:lOff:lOff], tc.edit(append([]byte(nil), man[lOff:]...))...)
			})
			s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
			if err != nil {
				t.Fatalf("a corrupt level block must degrade, not fail open: %v", err)
			}
			defer s.Close()
			for i := 0; i < s.NumBricks(); i++ {
				if tbl := s.BrickLevels(i); tbl != nil {
					t.Fatalf("brick %d: table %v survived an invalid level block", i, tbl)
				}
			}
			if !s.HasBrickStats() {
				t.Fatal("the statistics block in front of a corrupt level block was dropped with it")
			}
			for level := 1; level <= 5; level++ {
				got, _, err := s.ReadRegionLevel(ctx, lo, ds.Dims, level)
				if err != nil {
					t.Fatalf("level %d: %v", level, err)
				}
				if len(got) != len(want[level-1]) {
					t.Fatalf("level %d: %d points, want %d", level, len(got), len(want[level-1]))
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[level-1][i]) {
						t.Fatalf("level %d point %d = %v, want %v", level, i, got[i], want[level-1][i])
					}
				}
			}
		})
	}
}

// TestCorruptLegacyLevelsRejected drives the other caller of the level
// table reader: a v4 index entry's table. Legacy entries stay strictly
// validated, so where the journal block above is dropped whole, a
// non-increasing span, a span past the payload, or a last span other than
// the entry's own (length, CRC) fails Open with ErrCorrupt.
func TestCorruptLegacyLevelsRejected(t *testing.T) {
	buf, err := os.ReadFile("testdata/v4_f32.qozb")
	if err != nil {
		t.Fatal(err)
	}
	pristine := openBytes(t, buf)
	idxOff := int(binary.LittleEndian.Uint64(buf[len(buf)-footerSize:]))
	// reindex rewrites the v4 index (docs/FORMAT.md §1.5) over the pristine
	// entries after doctor has had its way with a copy of them.
	reindex := func(doctor func(bricks []brickEntry)) []byte {
		bricks := append([]brickEntry(nil), pristine.man.Load().bricks...)
		for i := range bricks {
			bricks[i].levels = append([]levelSpan(nil), bricks[i].levels...)
		}
		doctor(bricks)
		out := binary.AppendUvarint(append([]byte(nil), buf[:idxOff]...), uint64(len(bricks)))
		for _, e := range bricks {
			out = binary.AppendUvarint(out, uint64(e.len))
			out = binary.LittleEndian.AppendUint32(out, e.crc)
			out = binary.AppendUvarint(out, uint64(len(e.levels)))
			for _, sp := range e.levels {
				out = binary.AppendUvarint(out, uint64(sp.bytes))
				out = binary.LittleEndian.AppendUint32(out, sp.crc)
			}
		}
		return append(out, buf[len(buf)-footerSize:]...)
	}
	if !bytes.Equal(reindex(func([]brickEntry) {}), buf) {
		t.Fatal("the pristine entries do not re-serialize to the fixture; the cases below would test nothing")
	}
	if len(pristine.BrickLevels(1)) < 2 {
		t.Fatalf("fixture brick 1 records no multi-level table (%v); the test would be vacuous", pristine.BrickLevels(1))
	}
	for _, tc := range []struct {
		name   string
		doctor func(b []brickEntry)
	}{
		{"non-increasing-span", func(b []brickEntry) { b[1].levels[1].bytes = b[1].levels[0].bytes }},
		{"span-past-payload", func(b []brickEntry) { t := b[1].levels; t[len(t)-1].bytes = b[1].len + 1 }},
		{"last-span-crc", func(b []brickEntry) { t := b[1].levels; t[len(t)-1].crc ^= 1 }},
		{"too-many-levels", func(b []brickEntry) { b[0].levels = make([]levelSpan, maxLevelEntries+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := reindex(tc.doctor)
			s, err := Open(bytes.NewReader(mut), int64(len(mut)), Options{})
			if err == nil {
				s.Close()
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want ErrCorrupt", err)
			}
		})
	}
}
