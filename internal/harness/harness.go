// Package harness regenerates every table and figure of the QoZ paper's
// evaluation section (§VII) on the synthetic dataset analogs: Fig. 7
// (error distributions), Table III (compression ratios), Figs. 8–10
// (rate–PSNR/SSIM/AC), Fig. 11 (visual quality at matched CR), Fig. 12
// (ablation), Fig. 13 (parameter tuning), Table IV (speeds), and Fig. 14
// (parallel I/O). Each experiment prints a paper-style table and returns
// its data for programmatic checks; cmd/benchsuite is the printer, and
// testdata/rate_distortion_golden.txt pins Table III and Figs. 8–10.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
)

// Compressor is one entry of an experiment's line-up: the name the
// paper's tables print, the registry codec, and the options it runs with
// (each run sets the bound).
type Compressor struct {
	Name  string
	Codec qoz.Codec
	Opts  qoz.Options
}

// The paper's compressors, QoZ once per tuning mode.
var (
	sz2     = Compressor{"SZ2.1", qoz.MustLookup("sz2"), qoz.Options{}}
	sz3     = Compressor{"SZ3", qoz.MustLookup("sz3"), qoz.Options{}}
	zfp     = Compressor{"ZFP", qoz.MustLookup("zfp"), qoz.Options{}}
	mgard   = Compressor{"MGARD+", qoz.MustLookup("mgard"), qoz.Options{}}
	qozCR   = Compressor{"QoZ", qoz.MustLookup("qoz"), qoz.Options{Metric: qoz.TuneCR}}
	qozPSNR = Compressor{"QoZ(psnr)", qoz.MustLookup("qoz"), qoz.Options{Metric: qoz.TunePSNR}}
	qozSSIM = Compressor{"QoZ(ssim)", qoz.MustLookup("qoz"), qoz.Options{Metric: qoz.TuneSSIM}}
	qozAC   = Compressor{"QoZ(ac)", qoz.MustLookup("qoz"), qoz.Options{Metric: qoz.TuneAC}}
)

// lineup returns the paper's five compressors in table order, with q as
// QoZ.
func lineup(q Compressor) []Compressor { return []Compressor{sz2, sz3, zfp, mgard, q} }

// at returns c's options under the absolute error bound eb.
func (c Compressor) at(eb float64) qoz.Options {
	o := c.Opts
	o.ErrorBound = eb
	return o
}

// Config controls dataset sizes and sweep points.
type Config struct {
	// Small selects reduced dataset sizes (used by unit tests and
	// benchsuite -size small).
	Small bool
	// RelBounds are the value-range-relative error bounds of Table III.
	RelBounds []float64
	// Sweep are the relative bounds for the rate–distortion figures.
	Sweep []float64
}

// Default returns the configuration matching the paper's experiments at
// repository-default dataset sizes.
func Default() Config {
	return Config{
		RelBounds: []float64{1e-2, 1e-3, 1e-4},
		Sweep:     []float64{1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4},
	}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Config {
	return Config{
		Small:     true,
		RelBounds: []float64{1e-2, 1e-3},
		Sweep:     []float64{1e-2, 1e-3, 1e-4},
	}
}

// Datasets returns the experiment datasets at the configured size.
func (c Config) Datasets() []datagen.Dataset {
	if c.Small {
		return datagen.AllSmall()
	}
	return datagen.All()
}

// Run is one codec execution on one dataset at one bound.
type Run struct {
	Codec      string
	Dataset    string
	RelBound   float64
	AbsBound   float64
	Bytes      int
	CR         float64
	BitRate    float64
	PSNR       float64
	SSIM       float64
	AC         float64
	MaxErr     float64
	CompSecs   float64
	DecompSecs float64
	Recon      []float32
}

// RunCodec compresses and decompresses ds with c at the given relative
// bound, once each, and gathers all quality metrics.
func RunCodec(c Compressor, ds datagen.Dataset, rel float64) (Run, error) {
	return runCodec(c, ds, rel, 1)
}

// runCodec is RunCodec timing the best of reps compressions and reps
// decompressions. Both are deterministic and — on the small profile —
// often sub-millisecond, where a single timing is mostly scheduler jitter;
// the minimum of a deterministic computation is the measurement least
// polluted by interference.
func runCodec(c Compressor, ds datagen.Dataset, rel float64, reps int) (Run, error) {
	eb := rel * metrics.ValueRange(ds.Data)
	var buf []byte
	var cr float64
	var recon []float32
	var err error
	compSecs, decompSecs := math.Inf(1), math.Inf(1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if buf, cr, err = compressAt(c, ds, eb); err != nil {
			return Run{}, err
		}
		compSecs = min(compSecs, time.Since(start).Seconds())
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if recon, _, err = c.Codec.Decompress(context.Background(), buf); err != nil {
			return Run{}, fmt.Errorf("%s on %s: decompress: %w", c.Name, ds.Name, err)
		}
		decompSecs = min(decompSecs, time.Since(start).Seconds())
	}

	r := Run{
		Codec:      c.Name,
		Dataset:    ds.Name,
		RelBound:   rel,
		AbsBound:   eb,
		Bytes:      len(buf),
		CR:         cr,
		BitRate:    metrics.BitRate(len(buf), ds.Len()),
		CompSecs:   compSecs,
		DecompSecs: decompSecs,
		Recon:      recon,
	}
	r.PSNR, _ = metrics.PSNR(ds.Data, recon)
	r.SSIM, _ = metrics.SSIM(ds.Data, recon, ds.Dims)
	r.AC, _ = metrics.AutoCorrelation(ds.Data, recon, 1)
	r.MaxErr, _ = metrics.MaxAbsError(ds.Data, recon)
	return r, nil
}

// MatchCR searches for the relative error bound at which codec c reaches
// (approximately) the target compression ratio on ds, via bisection on
// log10(rel), and runs c in full at the bound that came closest. Used by
// the Fig. 11 same-CR comparison. A probe only compresses: the ratio
// needs nothing but the compressed length.
func MatchCR(c Compressor, ds datagen.Dataset, targetCR float64) (Run, error) {
	vr := metrics.ValueRange(ds.Data)
	lo, hi := -6.0, -0.5 // log10 of relative bound
	bestRel, bestGap := 0.0, -1.0
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		rel := math.Pow(10, mid)
		_, cr, err := compressAt(c, ds, rel*vr)
		if err != nil {
			return Run{}, err
		}
		if gap := abs(cr - targetCR); bestGap < 0 || gap < bestGap {
			bestRel, bestGap = rel, gap
		}
		if cr > targetCR {
			hi = mid // too much compression: tighten the bound
		} else {
			lo = mid
		}
	}
	return RunCodec(c, ds, bestRel)
}

// compressAt compresses ds with c at the absolute error bound eb and
// returns the stream with its compression ratio.
func compressAt(c Compressor, ds datagen.Dataset, eb float64) ([]byte, float64, error) {
	buf, err := c.Codec.Compress(context.Background(), ds.Data, ds.Dims, c.at(eb))
	if err != nil {
		return nil, 0, fmt.Errorf("%s on %s: %w", c.Name, ds.Name, err)
	}
	return buf, metrics.CompressionRatio(ds.Len(), len(buf)), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// section prints an underlined experiment heading.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
