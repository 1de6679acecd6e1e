package qoz_test

// Encoder-bytes golden table. Every row is the CRC-32 and length of what
// one encode entry point emits for one deterministic field under one
// option set; the committed table (testdata/encoder_golden.txt) was
// generated before the encode hot path was rebuilt, so it is the check
// that an encoder change claiming "byte-identical streams" really is.
// A row that changes means emitted bytes changed: that is a format or
// tuning change and must be argued as one, never fixed by regenerating.
// The table is pinned on amd64, where neither datagen nor the codec's
// float arithmetic is subject to FMA contraction.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qoz"
	"qoz/datagen"
	"qoz/internal/container"
	"qoz/internal/core"
	"qoz/internal/szstream"
	"qoz/store"
)

var updateEncoderGolden = flag.Bool("update-encoder-golden", false,
	"rewrite testdata/encoder_golden.txt from the current encoder (format changes only)")

const encoderGoldenPath = "testdata/encoder_golden.txt"

type goldenField struct {
	name  string
	data  []float32
	dims  []int
	brick []int
	opts  qoz.Options // carries the bound; the config fills in the rest
	big   bool        // 96^3: entry points beyond qoz.Encode run on a config subset
}

type goldenConfig struct {
	name  string
	apply func(*qoz.Options)
	core  bool // also exercised through every other entry point on big fields
}

// lcg is a tiny deterministic generator so the synthetic fields do not
// depend on math/rand's stream.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(uint64(*g)>>11) / (1 << 53)
}

func synthField(dims []int, seed uint64, noise float64) []float32 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	g := lcg(seed)
	out := make([]float32, n)
	coord := make([]int, len(dims))
	for i := range out {
		v := 0.0
		for d, c := range coord {
			x := float64(c) / float64(dims[d])
			v += math.Sin(float64(2*d+3)*x*math.Pi) * math.Cos(float64(d+1)*x*5)
		}
		out[i] = float32(v + noise*(g.next()-0.5))
		for d := len(dims) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
	return out
}

func goldenFields() []goldenField {
	rel := qoz.Options{RelBound: 1e-3}
	mir := datagen.Miranda(96, 96, 96)
	nyx := datagen.NYX(96, 96, 96)
	hur := datagen.Hurricane(96, 96, 96)
	b32 := []int{32, 32, 32}

	outl := synthField([]int{40, 40, 40}, 7, 0.05)
	g := lcg(99)
	for k := 0; k < 60; k++ {
		i := int(g.next() * float64(len(outl)))
		switch k % 4 {
		case 0:
			outl[i] = float32(math.NaN())
		case 1:
			outl[i] = float32(math.Inf(1))
		case 2:
			outl[i] = float32(math.Inf(-1))
		default:
			outl[i] = 1e30
		}
	}

	return []goldenField{
		{name: "miranda96", data: mir.Data, dims: mir.Dims, brick: b32, opts: rel, big: true},
		{name: "nyx96", data: nyx.Data, dims: nyx.Dims, brick: b32, opts: rel, big: true},
		{name: "hurricane96", data: hur.Data, dims: hur.Dims, brick: b32, opts: rel, big: true},
		{name: "odd70x33x50", data: synthField([]int{70, 33, 50}, 1, 0.02), dims: []int{70, 33, 50}, brick: b32, opts: rel},
		{name: "line5000", data: synthField([]int{5000}, 2, 0.01), dims: []int{5000}, brick: []int{1024}, opts: rel},
		{name: "plane150x130", data: synthField([]int{150, 130}, 3, 0.01), dims: []int{150, 130}, brick: []int{64, 64}, opts: rel},
		{name: "hyper9x14x11x13", data: synthField([]int{9, 14, 11, 13}, 4, 0.02), dims: []int{9, 14, 11, 13}, brick: []int{8, 8, 8, 8}, opts: rel},
		// An infinite value range makes a relative bound meaningless.
		{name: "outliers40", data: outl, dims: []int{40, 40, 40}, brick: b32, opts: qoz.Options{ErrorBound: 1e-2}},
	}
}

func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{"cr", func(o *qoz.Options) { o.Metric = qoz.TuneCR }, true},
		{"psnr", func(o *qoz.Options) { o.Metric = qoz.TunePSNR }, true},
		{"ssim", func(o *qoz.Options) { o.Metric = qoz.TuneSSIM }, false},
		{"ac", func(o *qoz.Options) { o.Metric = qoz.TuneAC }, false},
		{"fixed1.5-3", func(o *qoz.Options) { o.Metric, o.Alpha, o.Beta = qoz.TuneFixed, 1.5, 3 }, true},
		{"noanchors", func(o *qoz.Options) { o.DisableAnchors = true }, true},
		{"nosampling", func(o *qoz.Options) { o.DisableSampling = true }, false},
		{"nolevelselect", func(o *qoz.Options) { o.DisableLevelSelect = true }, false},
		{"noparamtuning", func(o *qoz.Options) { o.DisableParamTuning = true }, false},
	}
}

// widen makes a float64 field that is not exactly representable in
// float32, so the double-precision envelope has real work to do.
func widen(data []float32) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = float64(v) * (1 + 1e-9*float64(i%7))
	}
	return out
}

// encoderGoldenRows runs every entry point over one field's share of the
// field × config matrix and returns its rows in a fixed order.
func encoderGoldenRows(t *testing.T, f goldenField) []string {
	ctx := context.Background()
	var rows []string
	add := func(name string, b []byte, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, fmt.Sprintf("%s %08x %d", name, crc32.ChecksumIEEE(b), len(b)))
	}
	// decoded adds a row for what a decoder reconstructs from b: the CRC-32
	// of the samples' little-endian bits and their count.
	decoded := func(name string, b []byte) {
		out, _, err := qoz.Decode[float32](ctx, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := container.Float32sToBytes(out)
		rows = append(rows, fmt.Sprintf("%s %08x %d", name, crc32.ChecksumIEEE(raw), len(out)))
	}
	type tagged struct {
		tag string
		b   []byte
	}
	var coreStreams []tagged
	wide := widen(f.data)
	for _, c := range goldenConfigs() {
		o := f.opts
		c.apply(&o)
		tag := f.name + "/" + c.name

		b, err := qoz.Encode(ctx, nil, f.data, f.dims, o)
		add(tag+"/encode-f32", b, err)
		decoded(tag+"/encode-f32/decode", b)
		if f.big && !c.core {
			continue
		}
		b, err = qoz.Encode(ctx, nil, wide, f.dims, o)
		add(tag+"/encode-f64", b, err)

		abs, err := o.ResolveAbs(f.data)
		if err != nil {
			t.Fatal(err)
		}
		b, err = core.Compress(f.data, f.dims, core.Options{
			ErrorBound:         abs.ErrorBound,
			Mode:               core.Mode(o.Metric),
			Alpha:              o.Alpha,
			Beta:               o.Beta,
			DisableAnchors:     o.DisableAnchors,
			DisableSampling:    o.DisableSampling,
			DisableLevelSelect: o.DisableLevelSelect,
			DisableParamTuning: o.DisableParamTuning,
		})
		add(tag+"/core", b, err)
		coreStreams = append(coreStreams, tagged{tag, b})

		var s32, s64 bytes.Buffer
		err = store.WriteT(ctx, &s32, f.data, f.dims, store.WriteOptions{Opts: o, Brick: f.brick, Workers: 1})
		add(tag+"/store-f32", s32.Bytes(), err)
		err = store.WriteT(ctx, &s64, wide, f.dims, store.WriteOptions{Opts: o, Brick: f.brick, Workers: 1})
		add(tag+"/store-f64", s64.Bytes(), err)
	}
	// The interpolation baselines share the sweep and the entropy stage
	// with QoZ; one row each keeps them pinned too.
	for _, codec := range []string{"sz3", "mgard"} {
		b, err := qoz.Encode(ctx, qoz.MustLookup(codec), f.data, f.dims, f.opts)
		add(f.name+"/"+codec+"/encode-f32", b, err)
		decoded(f.name+"/"+codec+"/decode-f32", b)
	}
	// Each QoZ stream also decodes re-framed in the single-run layout of
	// streams written before level segmentation.
	for _, cs := range coreStreams {
		decoded(cs.tag+"/core/single-run-decode", singleRun(t, cs.b))
	}
	return rows
}

// singleRun re-frames a level-segmented QoZ stream in the single-run
// layout: every segment's bins and literals concatenated in stream order
// (seed stage, then levels top..1), one Huffman code over all of them.
func singleRun(t testing.TB, enc []byte) []byte {
	t.Helper()
	s, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := szstream.DecodeLevelsStream(s)
	if err != nil {
		t.Fatal(err)
	}
	run := &szstream.Payload{Anchors: p.Anchors, Config: p.Config}
	for _, seg := range p.Segments {
		run.Bins = append(run.Bins, seg.Bins...)
		run.Literals = append(run.Literals, seg.Literals...)
	}
	out, err := szstream.Encode(s.Codec, s.Dims, s.ErrorBound, run)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEncoderBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("encoder golden table is pinned on amd64")
	}
	if *updateEncoderGolden {
		var rows []string
		for _, f := range goldenFields() {
			rows = append(rows, encoderGoldenRows(t, f)...)
		}
		if err := os.WriteFile(encoderGoldenPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), encoderGoldenPath)
		return
	}
	raw, err := os.ReadFile(encoderGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, f := range goldenFields() {
		t.Run(f.name, func(t *testing.T) {
			got = append(got, encoderGoldenRows(t, f)...)
		})
	}
	if len(got) != len(want) {
		t.Fatalf("encoder produced %d rows, the table has %d", len(got), len(want))
	}
	if summary := goldenSummary(got, want); summary != "" {
		t.Error(summary)
	}
	for i, row := range got {
		if row != want[i] {
			t.Errorf("encoded bytes changed:\n  got  %s\n  want %s", row, want[i])
		}
	}
}

// goldenSummary condenses the rows that differ between got and want, two
// tables in the same row order, into what an intended move is reviewed
// by: the rows moved per field and row kind, how the encoder-bytes rows'
// sizes moved, and whether any decoded-sample row moved. No decoded row
// moving means an entropy-only change; one moving means a decision
// changed. It returns "" when the tables agree.
func goldenSummary(got, want []string) string {
	configs := map[string]bool{}
	for _, c := range goldenConfigs() {
		configs[c.name] = true
	}
	var fields []string
	kinds := map[string]map[string]int{} // field → row kind → rows moved
	moved, grew, shrank, decodedMoved := 0, 0, 0, 0
	oldBytes, newBytes := 0, 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		moved++
		name, size := goldenRow(got[i])
		_, was := goldenRow(want[i])
		parts := strings.SplitN(name, "/", 3)
		field, kind := parts[0], strings.Join(parts[1:], "/")
		if len(parts) == 3 && configs[parts[1]] {
			kind = parts[2] // the config is not a kind of row
		}
		if kinds[field] == nil {
			fields = append(fields, field)
			kinds[field] = map[string]int{}
		}
		kinds[field][kind]++
		if strings.HasSuffix(kind, "decode") || strings.HasSuffix(kind, "decode-f32") {
			decodedMoved++ // its size is a sample count
			continue
		}
		switch {
		case size > was:
			grew++
		case size < was:
			shrank++
		}
		oldBytes += was
		newBytes += size
		pct := 100 * float64(size-was) / float64(was)
		lo, hi = min(lo, pct), max(hi, pct)
	}
	if moved == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d golden rows moved\n", moved, len(got))
	for _, field := range fields {
		var ks []string
		for k, n := range kinds[field] {
			ks = append(ks, fmt.Sprintf("%s %d", k, n))
		}
		slices.Sort(ks)
		fmt.Fprintf(&b, "  %s: %s\n", field, strings.Join(ks, ", "))
	}
	if enc := moved - decodedMoved; enc > 0 {
		fmt.Fprintf(&b, "encoder-bytes rows: %d grew, %d shrank, %d same size; net %+d B (%+.2f %%); per row %+.2f %% … %+.2f %%\n",
			grew, shrank, enc-grew-shrank, newBytes-oldBytes,
			100*float64(newBytes-oldBytes)/float64(max(oldBytes, 1)), lo, hi)
	}
	if decodedMoved == 0 {
		b.WriteString("decoded-sample rows: none moved (an entropy-only change)")
	} else {
		fmt.Fprintf(&b, "decoded-sample rows: %d moved (a decision changed)", decodedMoved)
	}
	return b.String()
}

// goldenRow splits a table row into its name and its last field, the
// stream's length in bytes or the decoded sample count.
func goldenRow(row string) (name string, size int) {
	f := strings.Fields(row)
	if len(f) != 3 {
		return row, 0
	}
	size, _ = strconv.Atoi(f[2])
	return f[0], size
}

func TestGoldenSummary(t *testing.T) {
	want := []string{
		"nyx96/cr/encode-f32 00000001 1000",
		"nyx96/cr/encode-f32/decode 00000002 512",
		"nyx96/psnr/core 00000003 2000",
		"nyx96/sz3/encode-f32 00000004 400",
		"line5000/cr/encode-f32 00000005 80",
	}
	got := slices.Clone(want)
	if s := goldenSummary(got, want); s != "" {
		t.Fatalf("equal tables summarised as %q", s)
	}
	got[0] = "nyx96/cr/encode-f32 0000000a 1010"
	got[2] = "nyx96/psnr/core 0000000b 1990"
	got[3] = "nyx96/sz3/encode-f32 0000000c 400"
	s := goldenSummary(got, want)
	for _, line := range []string{
		"3 of 5 golden rows moved",
		"  nyx96: core 1, encode-f32 1, sz3/encode-f32 1",
		"encoder-bytes rows: 1 grew, 1 shrank, 1 same size; net +0 B (+0.00 %); per row -0.50 % … +1.00 %",
		"decoded-sample rows: none moved (an entropy-only change)",
	} {
		if !strings.Contains(s, line) {
			t.Errorf("summary lacks %q:\n%s", line, s)
		}
	}
	got[1] = "nyx96/cr/encode-f32/decode 0000000d 512"
	if s := goldenSummary(got, want); !strings.Contains(s, "decoded-sample rows: 1 moved (a decision changed)") {
		t.Errorf("a moved decoded row is not reported:\n%s", s)
	}
}
