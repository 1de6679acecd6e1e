// Command qozc is a command-line error-bounded lossy compressor for raw
// binary float32/float64 scientific data files (the format SDRBench
// distributes), built on the unified codec registry of the QoZ library.
//
// Usage:
//
//	qozc compress   -in data.f32 -dims 100,500,500 -rel 1e-3 [-abs E]
//	                [-codec qoz|sz2|sz3|zfp|mgard] [-mode cr|psnr|ssim|ac]
//	                [-workers N] [-prec 32|64] [-out data.qoz]
//	qozc decompress -in data.qoz [-out data.f32]
//	qozc put        -in data.f32 -dims 100,500,500 -rel 1e-3 [-abs E]
//	                [-codec C] [-brick 64,64,64] [-workers N] [-prec 32|64]
//	                [-out data.qozb]
//	qozc put        -in data.qoz [-brick ...] [-out data.qozb]
//	qozc append     -store data.qozb -in steps.f32 [-workers N]
//	qozc compact    -store data.qozb
//	qozc get        -in data.qozb [-out data.f32|data.f64]
//	qozc extract    -in data.qozb -box 0:32,128:256,0:64 [-out roi.f32|roi.f64]
//	qozc query      -in data.qozb -op gt|lt|range|min|max|hist [-value V]
//	                [-low L -high H] [-bins N] [-box lo:hi,...] [-maxloc K] [-json]
//	qozc info       -in data.qoz|data.qozb [-json]
//	qozc codecs
//
// Input data is little-endian IEEE-754, row-major with the last listed
// dimension varying fastest. Compression writes the slab stream format,
// chunking large fields and compressing slabs concurrently; decompression
// accepts slab streams and the legacy container formats of every
// registered codec.
//
// put builds a brick store (see qoz/store): the field — a raw float32 or
// float64 file (-prec), or an existing .qoz slab stream re-bricked without
// materializing the field — is partitioned into fixed-shape bricks
// compressed independently, so get/extract can decode any region of
// interest by touching only the bricks it intersects. A float64 input
// yields a float64 store (element kind in the header); get and extract
// then emit raw float64 back.
//
// Every store put writes is a generation journal (format v3) at
// generation 1, written to a temp file and renamed into place: append
// then grows it by whole time steps — each append commits a new
// generation journal-style, so readers and qozd pick the steps up without
// the file ever being rewritten — and compact reclaims the space of
// superseded generations. See docs/FORMAT.md for the on-disk format.
//
// query answers a predicate over a store without materializing the
// field: count the points beyond a threshold or inside a range (gt, lt,
// range; -maxloc also lists the first matches), locate the extremum
// (min, max), or histogram a box (hist). The store's manifest carries a
// per-brick statistics index, and the query decodes only the bricks the
// index cannot resolve — the report says how many bricks were pruned
// versus decoded. info shows the index's field-wide aggregate.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"qoz"
	"qoz/internal/container"
	"qoz/internal/fsutil"
	"qoz/internal/grid"
	"qoz/internal/interp"
	"qoz/metrics"
	"qoz/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = compressCmd(os.Args[2:])
	case "decompress":
		err = decompressCmd(os.Args[2:])
	case "put":
		err = putCmd(os.Args[2:])
	case "append":
		err = appendCmd(os.Args[2:])
	case "compact":
		err = compactCmd(os.Args[2:])
	case "get":
		err = getCmd(os.Args[2:])
	case "extract":
		err = extractCmd(os.Args[2:])
	case "query":
		err = queryCmd(os.Args[2:])
	case "info":
		err = infoCmd(os.Args[2:])
	case "compare":
		err = compareCmd(os.Args[2:])
	case "codecs":
		err = codecsCmd()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qozc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qozc compress|decompress|put|append|compact|get|extract|query|info|compare|codecs [flags] (see -h per subcommand)")
	os.Exit(2)
}

// codecsCmd lists the compressors available through the registry.
func codecsCmd() error {
	for _, name := range qoz.Codecs() {
		c, err := qoz.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s stream id %d\n", name, c.ID())
	}
	return nil
}

// compareCmd assesses reconstruction quality between two raw float32 files
// (a Z-checker-style distortion report).
func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	orig := fs.String("orig", "", "original raw float32 file (required)")
	recon := fs.String("recon", "", "reconstructed raw float32 file (required)")
	dimsArg := fs.String("dims", "", "comma-separated dimensions (required)")
	fs.Parse(args)
	if *orig == "" || *recon == "" || *dimsArg == "" {
		return fmt.Errorf("compare requires -orig, -recon, and -dims")
	}
	dims, err := parseDims(*dimsArg)
	if err != nil {
		return err
	}
	a, err := readRaw[float32](*orig, dims)
	if err != nil {
		return err
	}
	b, err := readRaw[float32](*recon, dims)
	if err != nil {
		return err
	}
	maxErr, err := metrics.MaxAbsError(a, b)
	if err != nil {
		return err
	}
	psnr, _ := metrics.PSNR(a, b)
	nrmse, _ := metrics.NRMSE(a, b)
	ssim, _ := metrics.SSIM(a, b, dims)
	ac, _ := metrics.AutoCorrelation(a, b, 1)
	fmt.Printf("points:     %d  dims %v\n", len(a), dims)
	fmt.Printf("max |err|:  %.6g\n", maxErr)
	fmt.Printf("PSNR:       %.3f dB\n", psnr)
	fmt.Printf("NRMSE:      %.6g\n", nrmse)
	fmt.Printf("SSIM:       %.6f\n", ssim)
	fmt.Printf("AC(lag-1):  %+.6f\n", ac)
	return nil
}

func compressCmd(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input raw float file (required)")
	out := fs.String("out", "", "output file (default: <in>.qoz)")
	dimsArg := fs.String("dims", "", "comma-separated dimensions, e.g. 100,500,500 (required)")
	rel := fs.Float64("rel", 0, "value-range-relative error bound ε")
	abs := fs.Float64("abs", 0, "absolute error bound e")
	codecName := fs.String("codec", qoz.DefaultCodec, "compressor: "+strings.Join(qoz.Codecs(), ", "))
	mode := fs.String("mode", "cr", "tuning metric (qoz codec only): cr, psnr, ssim, or ac")
	prec := fs.Int("prec", 32, "input precision in bits: 32 or 64")
	workers := fs.Int("workers", 0, "concurrent slab compressions (0 = all cores)")
	fs.Parse(args)
	if *in == "" || *dimsArg == "" {
		return fmt.Errorf("compress requires -in and -dims")
	}
	dims, err := parseDims(*dimsArg)
	if err != nil {
		return err
	}
	metric, err := parseMode(*mode)
	if err != nil {
		return err
	}
	codec, err := qoz.Lookup(*codecName)
	if err != nil {
		return err
	}
	so := qoz.StreamOptions{
		Codec:   codec,
		Opts:    qoz.Options{ErrorBound: *abs, RelBound: *rel, Metric: metric},
		Workers: *workers,
	}
	dst := *out
	if dst == "" {
		dst = *in + ".qoz"
	}
	switch *prec {
	case 32:
		return compressRaw[float32](*in, dst, dims, so)
	case 64:
		return compressRaw[float64](*in, dst, dims, so)
	}
	return fmt.Errorf("unsupported precision %d (want 32 or 64)", *prec)
}

// compressRaw reads and validates the raw input before touching dst, then
// streams into a temp file renamed over dst only on success, so a failed
// run never clobbers an existing archive.
func compressRaw[T qoz.Float](in, dst string, dims []int, so qoz.StreamOptions) error {
	data, err := readRaw[T](in, dims)
	if err != nil {
		return err
	}
	if err := writeAtomic(dst, func(f *os.File) error {
		enc, err := qoz.NewEncoder(f, so)
		if err != nil {
			return err
		}
		return qoz.EncodeT(context.Background(), enc, data, dims)
	}); err != nil {
		return err
	}
	st, err := os.Stat(dst)
	if err != nil {
		return err
	}
	origBytes := len(data) * sampleBytes[T]()
	fmt.Printf("%s: %d -> %d bytes (CR %.1f), codec=%s\n",
		dst, origBytes, st.Size(), float64(origBytes)/float64(st.Size()), so.Codec.Name())
	return nil
}

func decompressCmd(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input .qoz file (required)")
	out := fs.String("out", "", "output raw float file (default: <in>.f32 or .f64)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("decompress requires -in")
	}
	rep, err := readInfoReport(*in)
	if err != nil {
		return err
	}
	buf, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if rep.Float64 {
		return decompressTo[float64](buf, *in, *out)
	}
	return decompressTo[float32](buf, *in, *out)
}

func decompressTo[T qoz.Float](buf []byte, in, dst string) error {
	data, dims, err := qoz.Decode[T](context.Background(), buf)
	if err != nil {
		return err
	}
	if dst == "" {
		dst = in + rawExt[T]()
	}
	if err := writeRaw(dst, data); err != nil {
		return err
	}
	fmt.Printf("%s: dims %v, %d points%s\n", dst, dims, len(data), float64Note(sampleBytes[T]() == 8))
	return nil
}

// writeAtomic streams the result of fill into dst via a temp file that is
// synced and then renamed over dst only on success, so a failed run never
// clobbers an archive and a crash leaves either the old one or the new.
// The result keeps the mode of the file it replaces, 0644 when new.
func writeAtomic(dst string, fill func(f *os.File) error) error {
	f, err := fsutil.CreateReplacement(dst, ".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return fsutil.SyncDir(dst)
}

// putCmd builds a brick store from a raw float32 file or an existing slab
// stream.
func putCmd(args []string) error {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	in := fs.String("in", "", "input: raw float32 file (needs -dims) or .qoz slab stream (required)")
	out := fs.String("out", "", "output store file (default: <in>.qozb)")
	dimsArg := fs.String("dims", "", "comma-separated dimensions (raw input only)")
	rel := fs.Float64("rel", 0, "value-range-relative error bound ε (raw input only)")
	abs := fs.Float64("abs", 0, "absolute error bound e (raw input only)")
	codecName := fs.String("codec", "", "brick compressor (default: qoz, or the stream's codec)")
	brickArg := fs.String("brick", "", "brick shape, e.g. 64,64,64 (default: ~1 MiB bricks)")
	workers := fs.Int("workers", 0, "concurrent brick compressions (0 = all cores)")
	prec := fs.Int("prec", 32, "raw input precision in bits: 32 or 64 (stream input carries its own)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("put requires -in")
	}
	wo := store.WriteOptions{Workers: *workers}
	if *codecName != "" {
		c, err := qoz.Lookup(*codecName)
		if err != nil {
			return err
		}
		wo.Codec = c
	}
	if *brickArg != "" {
		b, err := parseDims(*brickArg)
		if err != nil {
			return err
		}
		wo.Brick = b
	}
	dst := *out
	if dst == "" {
		dst = *in + ".qozb"
	}
	ctx := context.Background()

	// Sniff the format from the first bytes; a multi-GiB input must not be
	// read (or held) twice just to dispatch.
	inF, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	var head [4]byte
	n, _ := io.ReadFull(inF, head[:])
	if _, err := inF.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if qoz.IsStream(head[:n]) {
		// Re-brick the stream slab by slab, straight off the file; bound
		// and codec carry over.
		if err := writeAtomic(dst, func(f *os.File) error {
			return store.WriteFrom(ctx, f, qoz.NewDecoder(inF), wo)
		}); err != nil {
			return err
		}
	} else {
		if *dimsArg == "" {
			return fmt.Errorf("put from raw data requires -dims")
		}
		dims, err := parseDims(*dimsArg)
		if err != nil {
			return err
		}
		wo.Opts = qoz.Options{ErrorBound: *abs, RelBound: *rel}
		switch *prec {
		case 32:
			err = putRaw[float32](ctx, *in, dst, dims, wo)
		case 64:
			err = putRaw[float64](ctx, *in, dst, dims, wo)
		default:
			err = fmt.Errorf("unsupported precision %d (want 32 or 64)", *prec)
		}
		if err != nil {
			return err
		}
	}
	s, err := store.OpenFile(dst, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	st, err := os.Stat(dst)
	if err != nil {
		return err
	}
	points := 1
	for _, d := range s.Dims() {
		points *= d
	}
	elem := storeSampleBytes(s)
	fmt.Printf("%s: dims %v, brick %v, %d bricks, dtype=%s, %d -> %d bytes (CR %.1f), codec=%s\n",
		dst, s.Dims(), s.BrickShape(), s.NumBricks(), s.DType(), points*elem, st.Size(),
		float64(points*elem)/float64(st.Size()), s.Codec().Name())
	return nil
}

// putRaw builds a store at dst from a raw file of T samples, via an
// atomically renamed temp file.
func putRaw[T qoz.Float](ctx context.Context, in, dst string, dims []int, wo store.WriteOptions) error {
	data, err := readRaw[T](in, dims)
	if err != nil {
		return err
	}
	return writeAtomic(dst, func(f *os.File) error { return store.WriteT(ctx, f, data, dims, wo) })
}

// appendCmd appends time steps from a raw float file to a store — any
// store put wrote — committing them as one new generation.
func appendCmd(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	st := fs.String("store", "", ".qozb store to append to (required)")
	in := fs.String("in", "", "raw float file holding whole steps in the store's dtype (required)")
	workers := fs.Int("workers", 0, "concurrent brick compressions (0 = all cores)")
	fs.Parse(args)
	if *st == "" || *in == "" {
		return fmt.Errorf("append requires -store and -in")
	}
	m, err := store.OpenMutable(*st, store.Options{Workers: *workers, CacheBytes: -1})
	if err != nil {
		return err
	}
	defer m.Close()
	dims := m.Dims()
	rowPoints := 1
	for _, d := range dims[1:] {
		rowPoints *= d
	}
	fi, err := os.Stat(*in)
	if err != nil {
		return err
	}
	stepBytes := int64(rowPoints) * int64(storeSampleBytes(m.Store))
	if fi.Size() == 0 || fi.Size()%stepBytes != 0 {
		return fmt.Errorf("%s holds %d bytes; one %s step of %v is %d bytes",
			*in, fi.Size(), m.DType(), dims[1:], stepBytes)
	}
	steps := int(fi.Size() / stepBytes)
	stepDims := append([]int{steps}, dims[1:]...)
	appendFile := appendRaw[float32]
	if m.Float64() {
		appendFile = appendRaw[float64]
	}
	if err := appendFile(m, *in, stepDims); err != nil {
		return err
	}
	fmt.Printf("%s: +%d steps -> dims %v, generation %d\n", *st, steps, m.Dims(), m.Generation())
	return nil
}

func appendRaw[T qoz.Float](m *store.Mutable, in string, stepDims []int) error {
	data, err := readRaw[T](in, stepDims)
	if err != nil {
		return err
	}
	return store.AppendStepsT(context.Background(), m, data)
}

// compactCmd rewrites a store down to its single latest generation,
// reclaiming superseded brick payloads and old manifests.
func compactCmd(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	st := fs.String("store", "", ".qozb store to compact (required)")
	fs.Parse(args)
	if *st == "" {
		return fmt.Errorf("compact requires -store")
	}
	before, err := os.Stat(*st)
	if err != nil {
		return err
	}
	m, err := store.OpenMutable(*st, store.Options{CacheBytes: -1})
	if err != nil {
		return err
	}
	defer m.Close()
	if err := m.Compact(context.Background()); err != nil {
		return err
	}
	after, err := os.Stat(*st)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes, generation %d\n", *st, before.Size(), after.Size(), m.Generation())
	return nil
}

// getCmd decodes a whole brick store back to raw floats in the store's
// own element type.
func getCmd(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	in := fs.String("in", "", "input .qozb store (required)")
	out := fs.String("out", "", "output raw float file (default: <in>.f32 or .f64)")
	workers := fs.Int("workers", 0, "concurrent brick decodes (0 = all cores)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("get requires -in")
	}
	s, err := store.OpenFile(*in, store.Options{Workers: *workers, CacheBytes: -1})
	if err != nil {
		return err
	}
	defer s.Close()
	dims := s.Dims()
	dst, points, err := extractRaw(s, make([]int, len(dims)), dims, *out, *in)
	if err != nil {
		return err
	}
	fmt.Printf("%s: dims %v, %d points%s\n", dst, dims, points, float64Note(s.Float64()))
	return nil
}

// extractRaw decodes the box [lo, hi) of s in the store's own sample kind
// and writes it raw to dst (default: base plus the kind's extension),
// returning the path written and the point count.
func extractRaw(s *store.Store, lo, hi []int, dst, base string) (string, int, error) {
	extract := extractRawT[float32]
	if s.Float64() {
		extract = extractRawT[float64]
	}
	return extract(s, lo, hi, dst, base)
}

func extractRawT[T qoz.Float](s *store.Store, lo, hi []int, dst, base string) (string, int, error) {
	data, err := store.ReadRegionT[T](context.Background(), s, lo, hi)
	if err != nil {
		return "", 0, err
	}
	if dst == "" {
		dst = base + rawExt[T]()
	}
	return dst, len(data), writeRaw(dst, data)
}

// extractCmd decodes one region of interest out of a brick store in the
// store's own element type.
func extractCmd(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "", "input .qozb store (required)")
	out := fs.String("out", "", "output raw float file (default: <in>.roi.f32 or .roi.f64)")
	boxArg := fs.String("box", "", "region lo:hi per dimension, e.g. 0:32,128:256,0:64 (required)")
	workers := fs.Int("workers", 0, "concurrent brick decodes (0 = all cores)")
	fs.Parse(args)
	if *in == "" || *boxArg == "" {
		return fmt.Errorf("extract requires -in and -box")
	}
	lo, hi, err := parseBox(*boxArg)
	if err != nil {
		return err
	}
	s, err := store.OpenFile(*in, store.Options{Workers: *workers, CacheBytes: -1})
	if err != nil {
		return err
	}
	defer s.Close()
	dst, points, err := extractRaw(s, lo, hi, *out, *in+".roi")
	if err != nil {
		return err
	}
	size := make([]int, len(lo))
	for i := range lo {
		size[i] = hi[i] - lo[i]
	}
	st := s.Stats()
	fmt.Printf("%s: region %v, dims %v, %d points (%d of %d bricks decoded)\n",
		dst, *boxArg, size, points, st.BricksDecoded, s.NumBricks())
	return nil
}

// queryCmd runs one pushdown query against a brick store: the same
// store.Query the serving layers expose, from the command line. The
// human report leads with the answer and ends with the pruning tally —
// how much of the field the statistics index resolved without decoding.
func queryCmd(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input .qozb brick store (required)")
	op := fs.String("op", "", "operation: gt, lt, range, min, max, or hist (required)")
	value := fs.Float64("value", math.NaN(), "threshold for -op gt/lt")
	low := fs.Float64("low", math.NaN(), "lower bound for -op range/hist (inclusive)")
	high := fs.Float64("high", math.NaN(), "upper bound for -op range/hist (exclusive)")
	bins := fs.Int("bins", 0, "histogram bin count for -op hist")
	boxArg := fs.String("box", "", "restrict to the box lo:hi,lo:hi,... (default: the whole field)")
	maxloc := fs.Int("maxloc", 0, "also list the first K matching coordinates (gt/lt/range)")
	asJSON := fs.Bool("json", false, "emit the raw query result as JSON")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("query requires -in and -op")
	}
	var err error
	req := store.QueryRequest{Op: *op, Value: *value, Low: *low, High: *high, Bins: *bins, MaxLocations: *maxloc}
	if *boxArg != "" {
		if req.Lo, req.Hi, err = parseBox(*boxArg); err != nil {
			return err
		}
	}
	// A missing or malformed parameter fails before the store is touched.
	if req, err = store.CheckQuery(req); err != nil {
		return err
	}
	s, err := store.OpenFile(*in, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	res, err := s.Query(context.Background(), req)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	switch *op {
	case store.QueryGT, store.QueryLT, store.QueryRange:
		fmt.Printf("count: %d\n", res.Count)
		for _, loc := range res.Locations {
			fmt.Printf("at: %v\n", loc)
		}
		if res.Truncated {
			fmt.Printf("(%d more matches beyond -maxloc %d)\n", res.Count-int64(len(res.Locations)), *maxloc)
		}
	case store.QueryMin, store.QueryMax:
		if !res.Found {
			fmt.Println("no non-NaN points in the box")
		} else {
			fmt.Printf("%s: %g at %v\n", *op, res.Value, res.Arg)
		}
	case store.QueryHist:
		fmt.Printf("binned: %d  below: %d  above: %d  nan: %d\n",
			res.Count, res.Below, res.Above, res.NaNCount)
		if len(res.Bins) <= 32 {
			width := (req.High - req.Low) / float64(len(res.Bins))
			for i, n := range res.Bins {
				fmt.Printf("[%g, %g): %d\n", req.Low+float64(i)*width, req.Low+float64(i+1)*width, n)
			}
		} else {
			fmt.Printf("bins: %d (use -json for the values)\n", len(res.Bins))
		}
	}
	fmt.Printf("bricks: %d pruned, %d decoded of %d\n",
		res.BricksPruned, res.BricksDecoded, res.BricksTotal)
	return nil
}

// parseBox parses "lo:hi,lo:hi,..." into region bounds.
func parseBox(s string) (lo, hi []int, err error) {
	for _, part := range strings.Split(s, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, nil, fmt.Errorf("invalid box extent %q (want lo:hi)", part)
		}
		l, err1 := strconv.Atoi(strings.TrimSpace(a))
		h, err2 := strconv.Atoi(strings.TrimSpace(b))
		if err1 != nil || err2 != nil || l < 0 || h <= l {
			return nil, nil, fmt.Errorf("invalid box extent %q (want 0 <= lo < hi)", part)
		}
		lo = append(lo, l)
		hi = append(hi, h)
	}
	if len(lo) == 0 {
		return nil, nil, fmt.Errorf("empty box")
	}
	return lo, hi, nil
}

// printStoreInfo prints a brick store's report, read from its manifest
// without decoding any brick.
func printStoreInfo(rep infoReport) {
	elem := 4
	if rep.Float64 {
		elem = 8
	}
	fmt.Printf("format: brick store\ncodec: %s\ndtype: %s\ndims: %v\nbrick: %v\nbricks: %d\nerror bound: %.6g\ncompressed: %d bytes\nCR: %.1f\n",
		rep.Codec, rep.DType, rep.Dims, rep.Brick, rep.Bricks, rep.ErrorBound,
		rep.CompressedBytes, float64(rep.Points*elem)/float64(rep.CompressedBytes))
	if rep.Generation > 0 {
		fmt.Printf("mutable: generation %d\n", rep.Generation)
	}
	if agg := rep.Stats; agg != nil {
		fmt.Printf("stats: min %.6g  max %.6g  (%d of %d bricks indexed)\n",
			agg.Min, agg.Max, agg.Bricks, rep.Bricks)
	}
}

// storeReport describes a brick store from its manifest alone.
func storeReport(path string) (infoReport, error) {
	st, err := os.Stat(path)
	if err != nil {
		return infoReport{}, err
	}
	s, err := store.OpenFile(path, store.Options{})
	if err != nil {
		return infoReport{}, err
	}
	defer s.Close()
	rep := infoReport{
		Format: "store", Codec: s.Codec().Name(), Float64: s.Float64(), DType: s.DType(),
		Dims: s.Dims(), Points: 1, Brick: s.BrickShape(), Bricks: s.NumBricks(),
		ErrorBound: s.ErrorBound(), CompressedBytes: st.Size(),
		Generation: s.Generation(), Mutable: s.Generation() > 0, FormatVersion: s.FormatVersion(),
		Stats: storeStats(s),
	}
	rep.Levels, rep.BrickLevels = storeLevels(s)
	for _, d := range rep.Dims {
		rep.Points *= d
	}
	return rep, nil
}

// statsReport is the field-wide aggregate of a store's per-brick
// statistics index: the value range and sample tallies of the original
// data, read from the manifest without decoding a brick.
type statsReport struct {
	// Bricks is how many bricks carry a valid statistics record.
	Bricks int     `json:"bricks"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Mean is the finite-sample mean, weighted across bricks; omitted if
	// the weighted sum overflows.
	Mean   float64 `json:"mean,omitempty"`
	Count  uint64  `json:"count"`
	Finite uint64  `json:"finite"`
	HasNaN bool    `json:"hasNaN,omitempty"`
	HasInf bool    `json:"hasInf,omitempty"`
}

// storeStats aggregates the per-brick statistics index into one
// field-wide summary, nil when the store carries no index (a v1/v2/v4
// store, a journal from before the extension) or no brick holds a finite
// sample. Min and Max are over finite original
// samples, so the JSON encoding never meets a non-finite number.
func storeStats(s *store.Store) *statsReport {
	if !s.HasBrickStats() {
		return nil
	}
	agg := statsReport{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for i := 0; i < s.NumBricks(); i++ {
		st, ok := s.BrickStats(i)
		if !ok {
			continue
		}
		agg.Bricks++
		agg.Count += st.Count
		agg.Finite += st.Finite
		agg.HasNaN = agg.HasNaN || st.HasNaN
		agg.HasInf = agg.HasInf || st.HasPosInf || st.HasNegInf
		if st.Finite > 0 {
			agg.Min = math.Min(agg.Min, st.Min)
			agg.Max = math.Max(agg.Max, st.Max)
			sum += st.Mean * float64(st.Finite)
		}
	}
	if agg.Finite == 0 {
		return nil
	}
	if m := sum / float64(agg.Finite); !math.IsInf(m, 0) && !math.IsNaN(m) {
		agg.Mean = m
	}
	return &agg
}

func infoCmd(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input .qoz file (required)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON from headers alone, without decoding any payload")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info requires -in")
	}
	if *asJSON {
		return infoJSON(*in, os.Stdout)
	}
	rep, err := readInfoReport(*in)
	if err != nil {
		return err
	}
	switch rep.Format {
	case "store":
		printStoreInfo(rep)
		return nil
	case "stream":
		fmt.Printf("format: slab stream\ncodec: %s\nslabs: %d × %d rows\n",
			rep.Codec, rep.Slabs, rep.SlabRows)
	default:
		fmt.Printf("format: legacy container\n")
	}
	// A store is described from its manifest alone; the other formats
	// are decoded for their value range.
	buf, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	data, dims, err := qoz.Decode[float64](context.Background(), buf)
	if err != nil {
		return err
	}
	elemBytes := 4
	if rep.Float64 {
		elemBytes = 8
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	vr := hi - lo
	if vr < 0 {
		vr = 0
	}
	fmt.Printf("dims: %v\npoints: %d\ncompressed: %d bytes\nCR: %.1f\nvalue range: %.6g\n",
		dims, len(data), len(buf),
		float64(len(data)*elemBytes)/float64(len(buf)), vr)
	return nil
}

// infoReport describes an archive from headers alone: everything a
// serving layer needs to mount or describe it. It is the -json layout of
// info, and what the human report prints from.
type infoReport struct {
	Format          string  `json:"format"` // store, stream, envelope, or container
	Codec           string  `json:"codec,omitempty"`
	Float64         bool    `json:"float64"`
	DType           string  `json:"dtype"`
	Dims            []int   `json:"dims,omitempty"`
	Points          int     `json:"points,omitempty"`
	Brick           []int   `json:"brick,omitempty"`
	Bricks          int     `json:"bricks,omitempty"`
	Slabs           int     `json:"slabs,omitempty"`
	SlabRows        int     `json:"slabRows,omitempty"`
	ErrorBound      float64 `json:"errorBound,omitempty"`
	CompressedBytes int64   `json:"compressedBytes"`
	// Mutable and Generation describe generation journals — every store
	// written since PR 22, generation 1 until something is appended:
	// Generation is the latest committed generation this manifest
	// reflects. Both are absent for a legacy index store (v1/v2/v4/v5).
	Mutable    bool   `json:"mutable,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// FormatVersion is the store's on-disk format version (3 for every
	// store qozc writes); Levels and BrickLevels appear when the manifest
	// carries progressive level tables (docs/FORMAT.md §1.4, and §1.5 for
	// legacy v4/v5 files).
	FormatVersion int                  `json:"formatVersion,omitempty"`
	Levels        []levelReport        `json:"levels,omitempty"`
	BrickLevels   [][]store.LevelEntry `json:"brickLevels,omitempty"`
	// Stats is the field-wide aggregate of the per-brick statistics index
	// (docs/FORMAT.md §1.6); absent for stores that record none.
	Stats *statsReport `json:"stats,omitempty"`
}

// levelReport summarizes one progressive level across the whole store:
// what a level-L read materializes and what it costs to fetch.
type levelReport struct {
	Level  int `json:"level"`
	Stride int `json:"stride"`
	// GridPoints is how many points a level-L read of the full field
	// returns (the stride-aligned subgrid of dims).
	GridPoints int `json:"gridPoints"`
	// NewPoints is how many points the interpolation passes at this level
	// commit, summed over bricks (interp.CountLevelPoints per brick).
	NewPoints int `json:"newPoints"`
	// Bytes is the total compressed prefix a level-L read fetches, summed
	// over bricks carrying level tables (each brick truncated to its own
	// deepest level).
	Bytes int64 `json:"bytes"`
}

// storeLevels assembles the per-level summary and per-brick offset tables
// of a store. Both are nil when no brick records a table.
func storeLevels(s *store.Store) ([]levelReport, [][]store.LevelEntry) {
	tables := make([][]store.LevelEntry, s.NumBricks())
	maxLevels := 0
	any := false
	for i := range tables {
		tables[i] = s.BrickLevels(i)
		if n := len(tables[i]); n > 0 {
			any = true
			if n > maxLevels {
				maxLevels = n
			}
		}
	}
	if !any {
		return nil, nil
	}
	dims := s.Dims()
	bk, _ := grid.NewBricks(dims, s.BrickShape()) // an open store's header passed the same checks
	levels := make([]levelReport, 0, maxLevels)
	for l := maxLevels; l >= 1; l-- {
		stride := 1 << (l - 1)
		rep := levelReport{Level: l, Stride: stride, GridPoints: 1}
		for _, d := range qoz.CoarseDims(dims, stride) {
			rep.GridPoints *= d
		}
		it := bk.Pieces(make([]int, len(dims)), dims)
		for it.Next() {
			bd := grid.Sub(it.BHi[:], it.BLo[:])
			rep.NewPoints += interp.CountLevelPoints(bd[:len(dims)], l)
		}
		for _, tab := range tables {
			if len(tab) == 0 {
				continue
			}
			// Entries run seed..1; the prefix for level l is the entry
			// with Level == min(l, deepest recorded level).
			eff := l
			if eff > tab[0].Level {
				eff = tab[0].Level
			}
			rep.Bytes += tab[len(tab)-eff].Bytes
		}
		levels = append(levels, rep)
	}
	return levels, tables
}

// infoJSON writes an archive's report as JSON. Unlike the human info
// report it never decodes a payload, so it is safe to run against
// multi-terabyte archives (and is what a deployment script feeds qozd).
func infoJSON(path string, w io.Writer) error {
	rep, err := readInfoReport(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// readInfoReport sniffs an archive's format and reads its report from
// headers alone.
func readInfoReport(path string) (infoReport, error) {
	st, err := os.Stat(path)
	if err != nil {
		return infoReport{}, err
	}
	rep := infoReport{CompressedBytes: st.Size()}

	var head [8]byte
	f, err := os.Open(path)
	if err != nil {
		return infoReport{}, err
	}
	n, _ := io.ReadFull(f, head[:])
	f.Close()
	switch {
	case store.IsStore(head[:n]):
		if rep, err = storeReport(path); err != nil {
			return infoReport{}, err
		}
	case qoz.IsStream(head[:n]):
		f, err := os.Open(path)
		if err != nil {
			return infoReport{}, err
		}
		defer f.Close()
		hdr, err := qoz.NewDecoder(f).Header()
		if err != nil {
			return infoReport{}, err
		}
		rep.Format = "stream"
		rep.Codec = hdr.CodecName
		if rep.Codec == "" {
			rep.Codec = fmt.Sprintf("unknown(id %d)", hdr.CodecID)
		}
		rep.Float64 = hdr.Float64
		rep.Dims = hdr.Dims
		rep.Points = hdr.Points()
		rep.Slabs = hdr.NumSlabs
		rep.SlabRows = hdr.SlabRows
		rep.ErrorBound = hdr.ErrorBound
	default:
		// Both checks below inspect only the archive's front; a bounded
		// prefix keeps the promise that -json never pulls a whole
		// multi-terabyte file through memory.
		f, err := os.Open(path)
		if err != nil {
			return infoReport{}, err
		}
		buf := make([]byte, min(st.Size(), 4096))
		_, err = io.ReadFull(f, buf)
		f.Close()
		if err != nil {
			return infoReport{}, err
		}
		if qoz.IsFloat64Stream(buf) {
			rep.Format = "envelope"
			rep.Float64 = true
		} else {
			id, dims, err := container.PeekHeader(buf)
			if err != nil {
				return infoReport{}, fmt.Errorf("%s: unrecognized format: %w", path, err)
			}
			rep.Format = "container"
			rep.Dims = dims
			rep.Points = 1
			for _, d := range dims {
				rep.Points *= d
			}
			if c, err := qoz.LookupID(id); err == nil {
				rep.Codec = c.Name()
			} else {
				rep.Codec = fmt.Sprintf("unknown(id %d)", id)
			}
		}
	}
	rep.DType = "float32"
	if rep.Float64 {
		rep.DType = "float64"
	}
	return rep, nil
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid dimension %q", p)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func parseMode(s string) (qoz.Tuning, error) {
	switch strings.ToLower(s) {
	case "cr":
		return qoz.TuneCR, nil
	case "psnr":
		return qoz.TunePSNR, nil
	case "ssim":
		return qoz.TuneSSIM, nil
	case "ac":
		return qoz.TuneAC, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want cr, psnr, ssim, or ac)", s)
	}
}

// sampleBytes returns the byte width of sample type T.
func sampleBytes[T qoz.Float]() int { return binary.Size(T(0)) }

// storeSampleBytes returns the byte width of s's samples.
func storeSampleBytes(s *store.Store) int {
	if s.Float64() {
		return 8
	}
	return 4
}

// rawExt returns the conventional raw-file extension of T: ".f32" or ".f64".
func rawExt[T qoz.Float]() string { return fmt.Sprintf(".f%d", 8*sampleBytes[T]()) }

// float64Note returns the suffix reports append for double-precision output.
func float64Note(float64s bool) string {
	if float64s {
		return " (float64)"
	}
	return ""
}

// readRaw reads a raw little-endian file of exactly the samples dims
// describe.
func readRaw[T qoz.Float](path string, dims []int) ([]T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if want := n * sampleBytes[T](); len(raw) != want {
		return nil, fmt.Errorf("%s holds %d bytes; dims %v need %d", path, len(raw), dims, want)
	}
	data := make([]T, n)
	if _, err := binary.Decode(raw, binary.LittleEndian, data); err != nil {
		return nil, err
	}
	return data, nil
}

// writeRaw writes data to path as raw little-endian samples.
func writeRaw[T qoz.Float](path string, data []T) error {
	raw, err := binary.Append(nil, binary.LittleEndian, data)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
