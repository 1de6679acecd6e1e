package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qoz/datagen"
)

func writeF32(t *testing.T, path string, data []float32) {
	t.Helper()
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompressDecompressCycle(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(16, 16, 16)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)

	qozFile := filepath.Join(dir, "data.qoz")
	if err := compressCmd([]string{"-in", in, "-dims", "16,16,16", "-rel", "1e-3", "-out", qozFile}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	outFile := filepath.Join(dir, "out.f32")
	if err := decompressCmd([]string{"-in", qozFile, "-out", outFile}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	recon, err := readRaw[float32](outFile, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	vr := float64(0)
	lo, hi := ds.Data[0], ds.Data[0]
	for _, v := range ds.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	vr = float64(hi - lo)
	for i := range recon {
		if math.Abs(float64(recon[i])-float64(ds.Data[i])) > 1e-3*vr*(1+1e-12) {
			t.Fatalf("bound violated at %d", i)
		}
	}
	if err := infoCmd([]string{"-in", qozFile}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := compareCmd([]string{"-orig", in, "-recon", outFile, "-dims", "16,16,16"}); err != nil {
		t.Fatalf("compare: %v", err)
	}
}

func TestFloat64Cycle(t *testing.T) {
	dir := t.TempDir()
	n := 512
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 20)
	}
	in := filepath.Join(dir, "data.f64")
	raw := make([]byte, 8*n)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	qozFile := filepath.Join(dir, "data.qoz")
	if err := compressCmd([]string{"-in", in, "-dims", "512", "-rel", "1e-3", "-prec", "64", "-out", qozFile}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	outFile := filepath.Join(dir, "out.f64")
	if err := decompressCmd([]string{"-in", qozFile, "-out", outFile}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	recon, err := readRaw[float64](outFile, []int{n})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(data[i]-recon[i]) > 2e-3*2 { // range 2, rel 1e-3
			t.Fatalf("bound violated at %d", i)
		}
	}
}

func TestCompressValidation(t *testing.T) {
	if err := compressCmd([]string{"-dims", "4"}); err == nil {
		t.Error("missing -in accepted")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "short.f32")
	writeF32(t, in, make([]float32, 3))
	if err := compressCmd([]string{"-in", in, "-dims", "4", "-rel", "1e-3"}); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := compressCmd([]string{"-in", in, "-dims", "3", "-rel", "1e-3", "-mode", "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestParseDims(t *testing.T) {
	dims, err := parseDims("100, 500,500")
	if err != nil || len(dims) != 3 || dims[0] != 100 {
		t.Fatalf("parseDims: %v %v", dims, err)
	}
	if _, err := parseDims("10,-3"); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := parseDims("abc"); err == nil {
		t.Error("non-numeric dim accepted")
	}
}

func TestParseMode(t *testing.T) {
	for _, s := range []string{"cr", "psnr", "ssim", "ac", "PSNR"} {
		if _, err := parseMode(s); err != nil {
			t.Errorf("parseMode(%q): %v", s, err)
		}
	}
	if _, err := parseMode("x"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestPutGetExtractCycle(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(32, 32, 32)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)

	sf := filepath.Join(dir, "data.qozb")
	if err := putCmd([]string{"-in", in, "-dims", "32,32,32", "-rel", "1e-3", "-brick", "16,16,16", "-out", sf}); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Full read back.
	full := filepath.Join(dir, "full.f32")
	if err := getCmd([]string{"-in", sf, "-out", full}); err != nil {
		t.Fatalf("get: %v", err)
	}
	recon, err := readRaw[float32](full, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	vr := rangeOf(ds.Data)
	for i := range recon {
		if e := math.Abs(float64(recon[i]) - float64(ds.Data[i])); e > 1e-3*vr*(1+1e-9) {
			t.Fatalf("point %d: error %g exceeds bound", i, e)
		}
	}

	// ROI extract must match the corresponding slice of the full read.
	roi := filepath.Join(dir, "roi.f32")
	if err := extractCmd([]string{"-in", sf, "-box", "4:12,16:32,0:8", "-out", roi}); err != nil {
		t.Fatalf("extract: %v", err)
	}
	got, err := readRaw[float32](roi, []int{8, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for z := 4; z < 12; z++ {
		for y := 16; y < 32; y++ {
			for x := 0; x < 8; x++ {
				want := recon[(z*32+y)*32+x]
				if got[k] != want {
					t.Fatalf("roi point (%d,%d,%d): %v != %v", z, y, x, got[k], want)
				}
				k++
			}
		}
	}

	// info must recognize the store.
	if err := infoCmd([]string{"-in", sf}); err != nil {
		t.Fatalf("info on store: %v", err)
	}
}

func TestPutFromStream(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(24, 24, 24)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)
	qozFile := filepath.Join(dir, "data.qoz")
	if err := compressCmd([]string{"-in", in, "-dims", "24,24,24", "-rel", "1e-3", "-out", qozFile}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	sf := filepath.Join(dir, "rebricked.qozb")
	if err := putCmd([]string{"-in", qozFile, "-brick", "8,8,8", "-out", sf}); err != nil {
		t.Fatalf("put from stream: %v", err)
	}
	full := filepath.Join(dir, "full.f32")
	if err := getCmd([]string{"-in", sf, "-out", full}); err != nil {
		t.Fatalf("get: %v", err)
	}
	recon, err := readRaw[float32](full, ds.Dims)
	if err != nil {
		t.Fatal(err)
	}
	// Re-bricking re-compresses the reconstruction: within 2x the bound.
	vr := rangeOf(ds.Data)
	for i := range recon {
		if e := math.Abs(float64(recon[i]) - float64(ds.Data[i])); e > 2*1e-3*vr*(1+1e-9) {
			t.Fatalf("point %d: error %g exceeds 2x bound", i, e)
		}
	}
}

func TestParseBox(t *testing.T) {
	lo, hi, err := parseBox("0:32, 128:256,4:8")
	if err != nil || len(lo) != 3 || lo[1] != 128 || hi[2] != 8 {
		t.Fatalf("parseBox: %v %v %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "8:4", "-1:4", "a:b"} {
		if _, _, err := parseBox(bad); err == nil {
			t.Errorf("parseBox(%q) accepted", bad)
		}
	}
}

func rangeOf(a []float32) float64 {
	lo, hi := a[0], a[0]
	for _, v := range a {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(hi - lo)
}

// TestInfoJSON verifies the -json report is produced from headers alone
// and carries the fields a serving layer needs.
func TestInfoJSON(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(16, 16, 16)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)

	qozFile := filepath.Join(dir, "data.qoz")
	if err := compressCmd([]string{"-in", in, "-dims", "16,16,16", "-rel", "1e-3", "-out", qozFile}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	storeFile := filepath.Join(dir, "data.qozb")
	if err := putCmd([]string{"-in", in, "-dims", "16,16,16", "-rel", "1e-3", "-brick", "8,8,8", "-out", storeFile}); err != nil {
		t.Fatalf("put: %v", err)
	}

	report := func(path string) infoReport {
		t.Helper()
		var buf bytes.Buffer
		if err := infoJSON(path, &buf); err != nil {
			t.Fatalf("infoJSON(%s): %v", path, err)
		}
		var rep infoReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("infoJSON(%s) emitted unparseable JSON: %v", path, err)
		}
		return rep
	}

	if rep := report(qozFile); rep.Format != "stream" || rep.Points != 4096 ||
		rep.Codec == "" || rep.Slabs == 0 || rep.ErrorBound <= 0 {
		t.Fatalf("stream report incomplete: %+v", rep)
	}
	rep := report(storeFile)
	if rep.Format != "store" || rep.Bricks != 8 || len(rep.Brick) != 3 ||
		rep.Codec == "" || rep.ErrorBound <= 0 || rep.CompressedBytes == 0 {
		t.Fatalf("store report incomplete: %+v", rep)
	}

	// A fresh QoZ store is a journal (format v3) at generation 1 and
	// reports its progressive levels: deepest first, ending at level 1 (the
	// full field), with the fetch cost growing as the level drops.
	if rep.FormatVersion != 3 || rep.Generation != 1 || !rep.Mutable {
		t.Fatalf("fresh store reports format v%d, generation %d, mutable %v; want v3, 1, true", rep.FormatVersion, rep.Generation, rep.Mutable)
	}
	if len(rep.Levels) == 0 {
		t.Fatal("fresh store report carries no levels")
	}
	last := rep.Levels[len(rep.Levels)-1]
	if last.Level != 1 || last.Stride != 1 || last.GridPoints != rep.Points {
		t.Fatalf("level list must end at level 1 covering the field, got %+v", last)
	}
	for i, lv := range rep.Levels {
		if lv.Stride != 1<<(lv.Level-1) {
			t.Errorf("level %d reports stride %d", lv.Level, lv.Stride)
		}
		// NewPoints may be 0 at deep levels (stride beyond the brick shape:
		// anchors already cover the grid), but never negative, and the
		// finest level always commits points.
		if lv.Bytes <= 0 || lv.GridPoints <= 0 || lv.NewPoints < 0 {
			t.Errorf("level %d report has empty counters: %+v", lv.Level, lv)
		}
		if i > 0 {
			prev := rep.Levels[i-1]
			if lv.Level != prev.Level-1 {
				t.Errorf("levels not contiguous: %d after %d", lv.Level, prev.Level)
			}
			if lv.Bytes < prev.Bytes || lv.GridPoints < prev.GridPoints {
				t.Errorf("level %d cheaper than deeper level %d", lv.Level, prev.Level)
			}
		}
	}
	if last.NewPoints == 0 {
		t.Error("level 1 commits no points")
	}
	if last.Bytes > rep.CompressedBytes {
		t.Errorf("level-1 prefix %d bytes exceeds the file size %d", last.Bytes, rep.CompressedBytes)
	}
	if len(rep.BrickLevels) != rep.Bricks {
		t.Fatalf("%d brick level tables for %d bricks", len(rep.BrickLevels), rep.Bricks)
	}
	for i, tab := range rep.BrickLevels {
		if len(tab) == 0 {
			t.Fatalf("brick %d has no level table", i)
		}
		if tab[len(tab)-1].Level != 1 {
			t.Errorf("brick %d table does not end at level 1: %+v", i, tab)
		}
		for j := 1; j < len(tab); j++ {
			if tab[j].Level != tab[j-1].Level-1 || tab[j].Bytes < tab[j-1].Bytes {
				t.Errorf("brick %d table not a descending prefix chain: %+v", i, tab)
				break
			}
		}
	}
}

// TestPutGetExtractFloat64Cycle pins the double-precision store CLI path:
// a raw f64 file put with -prec 64 must build a float64 store, get must
// write raw f64 back within the bound, extract must slice it
// bit-identically, and info -json must name the dtype.
func TestPutGetExtractFloat64Cycle(t *testing.T) {
	dir := t.TempDir()
	dims := []int{16, 16, 16}
	n := 16 * 16 * 16
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/40) + 1e-9*math.Cos(float64(i)/3)
	}
	in := filepath.Join(dir, "data.f64")
	raw := make([]byte, 8*n)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sf := filepath.Join(dir, "data.qozb")
	if err := putCmd([]string{"-in", in, "-dims", "16,16,16", "-abs", "1e-7", "-prec", "64", "-brick", "8,8,8", "-out", sf}); err != nil {
		t.Fatalf("put -prec 64: %v", err)
	}

	full := filepath.Join(dir, "full.f64")
	if err := getCmd([]string{"-in", sf, "-out", full}); err != nil {
		t.Fatalf("get: %v", err)
	}
	recon, err := readRaw[float64](full, dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recon {
		if e := math.Abs(recon[i] - data[i]); e > 1e-7*(1+1e-9) {
			t.Fatalf("point %d: error %g exceeds bound (float32 narrowing would be ~1e-8 of magnitude)", i, e)
		}
	}

	roi := filepath.Join(dir, "roi.f64")
	if err := extractCmd([]string{"-in", sf, "-box", "2:10,4:12,0:8", "-out", roi}); err != nil {
		t.Fatalf("extract: %v", err)
	}
	got, err := readRaw[float64](roi, []int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for z := 2; z < 10; z++ {
		for y := 4; y < 12; y++ {
			for x := 0; x < 8; x++ {
				want := recon[(z*16+y)*16+x]
				if got[k] != want {
					t.Fatalf("roi point (%d,%d,%d): %v != %v (must be bit-identical)", z, y, x, got[k], want)
				}
				k++
			}
		}
	}

	var buf bytes.Buffer
	if err := infoJSON(sf, &buf); err != nil {
		t.Fatalf("infoJSON: %v", err)
	}
	var rep infoReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Format != "store" || !rep.Float64 || rep.DType != "float64" {
		t.Fatalf("float64 store report: %+v", rep)
	}
	if err := infoCmd([]string{"-in", sf}); err != nil {
		t.Fatalf("info on float64 store: %v", err)
	}
}

// TestPutFromFloat64Stream re-bricks a double-precision slab stream via
// the CLI — compress -prec 64, then put straight from the .qoz file.
func TestPutFromFloat64Stream(t *testing.T) {
	dir := t.TempDir()
	n := 24 * 24
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Cos(float64(i) / 15)
	}
	in := filepath.Join(dir, "data.f64")
	raw := make([]byte, 8*n)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	qozFile := filepath.Join(dir, "data.qoz")
	if err := compressCmd([]string{"-in", in, "-dims", "24,24", "-rel", "1e-4", "-prec", "64", "-out", qozFile}); err != nil {
		t.Fatalf("compress -prec 64: %v", err)
	}
	sf := filepath.Join(dir, "rebricked.qozb")
	if err := putCmd([]string{"-in", qozFile, "-brick", "8,8", "-out", sf}); err != nil {
		t.Fatalf("put from float64 stream: %v", err)
	}
	full := filepath.Join(dir, "full.f64")
	if err := getCmd([]string{"-in", sf, "-out", full}); err != nil {
		t.Fatalf("get: %v", err)
	}
	recon, err := readRaw[float64](full, []int{24, 24})
	if err != nil {
		t.Fatal(err)
	}
	// Re-bricking re-compresses the reconstruction: within 2x the bound.
	vr := 2.0 // cos range
	for i := range recon {
		if e := math.Abs(recon[i] - data[i]); e > 2*1e-4*vr*(1+1e-9) {
			t.Fatalf("point %d: error %g exceeds 2x bound", i, e)
		}
	}
}

// TestQueryCmdAndInfoStats: the query subcommand answers predicates over
// a store, and info aggregates the statistics index the queries prune
// from — the recorded min/max must be exactly the original data's,
// because statistics are computed before compression.
func TestQueryCmdAndInfoStats(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(16, 16, 16)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)
	sf := filepath.Join(dir, "data.qozb")
	if err := putCmd([]string{"-in", in, "-dims", "16,16,16", "-rel", "1e-3", "-brick", "8,8,8", "-out", sf}); err != nil {
		t.Fatalf("put: %v", err)
	}

	lo, hi := ds.Data[0], ds.Data[0]
	for _, v := range ds.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}

	// Every operation runs clean from the CLI, -json included.
	mid := (float64(lo) + float64(hi)) / 2
	for _, args := range [][]string{
		{"-in", sf, "-op", "gt", "-value", fmt.Sprint(mid)},
		{"-in", sf, "-op", "lt", "-value", fmt.Sprint(mid), "-maxloc", "3"},
		{"-in", sf, "-op", "range", "-low", fmt.Sprint(float64(lo)), "-high", fmt.Sprint(mid), "-box", "0:8,4:12,0:16"},
		{"-in", sf, "-op", "min"},
		{"-in", sf, "-op", "max", "-json"},
		{"-in", sf, "-op", "hist", "-low", fmt.Sprint(float64(lo)), "-high", fmt.Sprint(float64(hi) + 1e-6), "-bins", "8"},
	} {
		if err := queryCmd(args); err != nil {
			t.Errorf("query %v: %v", args, err)
		}
	}

	// Missing or malformed parameters fail before the store is touched.
	for _, args := range [][]string{
		{"-in", sf},
		{"-op", "gt", "-value", "1"},
		{"-in", sf, "-op", "gt"},
		{"-in", sf, "-op", "range", "-low", "1"},
		{"-in", sf, "-op", "hist", "-low", "0", "-high", "1", "-bins", "0"},
		{"-in", sf, "-op", "gt", "-value", "1", "-box", "8:4"},
	} {
		if err := queryCmd(args); err == nil {
			t.Errorf("query %v accepted", args)
		}
	}

	// info -json reports the field-wide aggregate of the index.
	var buf bytes.Buffer
	if err := infoJSON(sf, &buf); err != nil {
		t.Fatalf("infoJSON: %v", err)
	}
	var rep infoReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stats == nil {
		t.Fatal("fresh v5 store reports no stats aggregate")
	}
	if rep.Stats.Bricks != rep.Bricks {
		t.Errorf("stats cover %d of %d bricks", rep.Stats.Bricks, rep.Bricks)
	}
	if rep.Stats.Min != float64(lo) || rep.Stats.Max != float64(hi) {
		t.Errorf("stats range [%g, %g], original data [%g, %g]", rep.Stats.Min, rep.Stats.Max, lo, hi)
	}
	if rep.Stats.Count != uint64(len(ds.Data)) || rep.Stats.Finite != rep.Stats.Count {
		t.Errorf("stats tallies count=%d finite=%d, want %d finite points", rep.Stats.Count, rep.Stats.Finite, len(ds.Data))
	}
	if rep.Stats.HasNaN || rep.Stats.HasInf {
		t.Errorf("stats flag non-finite values in an all-finite field: %+v", rep.Stats)
	}
	if rep.Stats.Mean < float64(lo) || rep.Stats.Mean > float64(hi) {
		t.Errorf("stats mean %g outside the value range", rep.Stats.Mean)
	}
}

// TestMutableStoreCycle: put, append steps to what put wrote, read them
// back with get, compact, and confirm the data, the manifest and the level
// tables survive every stage.
func TestMutableStoreCycle(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(4, 16, 16)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)
	storeFile := filepath.Join(dir, "data.qozb")
	if err := putCmd([]string{"-in", in, "-dims", "4,16,16", "-abs", "1e-3",
		"-brick", "2,8,8", "-out", storeFile}); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Append two more steps (reuse the first two planes of the dataset).
	stepFile := filepath.Join(dir, "steps.f32")
	writeF32(t, stepFile, ds.Data[:2*16*16])
	if err := appendCmd([]string{"-store", storeFile, "-in", stepFile}); err != nil {
		t.Fatalf("append to a store made by plain put: %v", err)
	}

	// info -json must describe the grown store, level tables included.
	describe := func(label string, wantGen uint64) {
		t.Helper()
		var rep infoReport
		var buf bytes.Buffer
		if err := infoJSON(storeFile, &buf); err != nil {
			t.Fatalf("%s info -json: %v", label, err)
		}
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Mutable || rep.Generation != wantGen || rep.FormatVersion != 3 {
			t.Fatalf("%s: info -json reports mutable %v, generation %d, format v%d; want true, %d, v3", label, rep.Mutable, rep.Generation, rep.FormatVersion, wantGen)
		}
		if len(rep.Dims) != 3 || rep.Dims[0] != 6 {
			t.Fatalf("%s: info -json dims %v, want [6 16 16]", label, rep.Dims)
		}
		if len(rep.BrickLevels) != rep.Bricks || len(rep.Levels) == 0 {
			t.Fatalf("%s: %d level tables for %d bricks, %d levels", label, len(rep.BrickLevels), rep.Bricks, len(rep.Levels))
		}
		for i, tab := range rep.BrickLevels {
			if len(tab) == 0 {
				t.Fatalf("%s: brick %d lost its level table", label, i)
			}
		}
	}
	describe("grown", 2)

	check := func(label string) {
		t.Helper()
		outFile := filepath.Join(dir, label+".f32")
		if err := getCmd([]string{"-in", storeFile, "-out", outFile}); err != nil {
			t.Fatalf("%s get: %v", label, err)
		}
		recon, err := readRaw[float32](outFile, []int{6, 16, 16})
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]float32(nil), ds.Data...), ds.Data[:2*16*16]...)
		for i := range recon {
			if math.Abs(float64(recon[i])-float64(want[i])) > 1e-3+1e-9 {
				t.Fatalf("%s: bound violated at %d: %v vs %v", label, i, recon[i], want[i])
			}
		}
	}
	check("grown")

	if err := compactCmd([]string{"-store", storeFile}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	check("compacted")
	describe("compacted", 3)

	// Appending to a legacy write-once index store must fail with guidance.
	legacy, err := os.ReadFile("../../store/testdata/v5_f32.qozb")
	if err != nil {
		t.Fatal(err)
	}
	v5 := filepath.Join(dir, "v5.qozb")
	if err := os.WriteFile(v5, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	v5Step := filepath.Join(dir, "v5step.f32")
	writeF32(t, v5Step, make([]float32, 12*12))
	if err := appendCmd([]string{"-store", v5, "-in", v5Step}); err == nil || !strings.Contains(err.Error(), "qozc put") {
		t.Fatalf("append to a v5 index store: %v, want a refusal naming qozc put", err)
	}
}

// TestPutFileMode: a new store is readable by other users (0644 — a qozd
// under another uid must be able to mount what put wrote, which
// CreateTemp's 0600 prevented), and a replacement keeps the mode of the
// file it replaces.
func TestPutFileMode(t *testing.T) {
	dir := t.TempDir()
	ds := datagen.NYX(4, 8, 8)
	in := filepath.Join(dir, "data.f32")
	writeF32(t, in, ds.Data)
	storeFile := filepath.Join(dir, "data.qozb")
	put := func() os.FileMode {
		t.Helper()
		if err := putCmd([]string{"-in", in, "-dims", "4,8,8", "-abs", "1e-3", "-out", storeFile}); err != nil {
			t.Fatalf("put: %v", err)
		}
		st, err := os.Stat(storeFile)
		if err != nil {
			t.Fatal(err)
		}
		return st.Mode().Perm()
	}
	if mode := put(); mode != 0o644 {
		t.Fatalf("put over nothing made a %04o store, want 0644", mode)
	}
	if err := os.Chmod(storeFile, 0o600); err != nil {
		t.Fatal(err)
	}
	if mode := put(); mode != 0o600 {
		t.Fatalf("put over a 0600 store left it %04o", mode)
	}
}

// TestWriteAtomicReplacesOrLeavesAlone: writeAtomic replaces an existing
// archive only with a complete new one, keeps the old one when the fill
// fails, and leaves no temp file behind either way.
func TestWriteAtomicReplacesOrLeavesAlone(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "field.qozb")
	if err := os.WriteFile(dst, []byte("old archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(step, want string) {
		t.Helper()
		got, err := os.ReadFile(dst)
		if err != nil || string(got) != want {
			t.Fatalf("%s: destination holds %q (%v), want %q", step, got, err, want)
		}
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(names) != 1 {
			t.Fatalf("%s: directory holds %v (%v), want only the destination", step, names, err)
		}
	}

	boom := errors.New("fill failed")
	err := writeAtomic(dst, func(f *os.File) error {
		f.WriteString("half of a new arch")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed fill returned %v", err)
	}
	check("after a failed fill", "old archive")

	err = writeAtomic(dst, func(f *os.File) error {
		// The old archive stays in place until the new one is complete.
		if got, _ := os.ReadFile(dst); string(got) != "old archive" {
			t.Errorf("during the fill the destination holds %q", got)
		}
		_, err := f.WriteString("new archive")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	check("after a successful fill", "new archive")
}
