package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"qoz"
	"qoz/datagen"
	"qoz/metrics"
	"qoz/parallelio"
)

// ---- Fig. 7: distribution of compression errors vs the bound ----

// Fig7Result is one (dataset, bound) error histogram.
type Fig7Result struct {
	Dataset    string
	RelBound   float64
	AbsBound   float64
	MaxErr     float64
	InBound    bool
	Histogram  []int // 20 bins across [-eb, +eb]
	Exceedance int   // points outside the bound (must be 0)
}

// Fig7 verifies QoZ's strict error-bound compliance on CESM-ATM and NYX at
// ε ∈ {1e-3, 1e-4} and prints the error histograms (paper Fig. 7).
func Fig7(w io.Writer, cfg Config) ([]Fig7Result, error) {
	section(w, "Fig. 7 — compression error distribution (QoZ)")
	var out []Fig7Result
	var sets []datagen.Dataset
	for _, ds := range cfg.Datasets() {
		if ds.Name == "CESM-ATM" || ds.Name == "NYX" {
			sets = append(sets, ds)
		}
	}
	for _, ds := range sets {
		for _, rel := range []float64{1e-3, 1e-4} {
			r, err := RunCodec(qozCR, ds, rel)
			if err != nil {
				return nil, err
			}
			res := Fig7Result{
				Dataset:   ds.Name,
				RelBound:  rel,
				AbsBound:  r.AbsBound,
				MaxErr:    r.MaxErr,
				InBound:   r.MaxErr <= r.AbsBound*(1+1e-12),
				Histogram: make([]int, 20),
			}
			for i := range ds.Data {
				e := float64(ds.Data[i]) - float64(r.Recon[i])
				if math.Abs(e) > r.AbsBound {
					res.Exceedance++
					continue
				}
				bin := int((e + r.AbsBound) / (2 * r.AbsBound) * 20)
				if bin >= 20 {
					bin = 19
				}
				if bin < 0 {
					bin = 0
				}
				res.Histogram[bin]++
			}
			out = append(out, res)
			fmt.Fprintf(w, "%-10s ε=%.0e e=%.3g  max|err|=%.3g  within-bound=%v  exceedances=%d\n",
				ds.Name, rel, res.AbsBound, res.MaxErr, res.InBound, res.Exceedance)
			fmt.Fprintf(w, "  histogram[-e..+e]: %v\n", res.Histogram)
		}
	}
	return out, nil
}

// ---- Table III: compression ratios under the same error bound ----

// Table3Cell is one dataset × bound row of Table III.
type Table3Cell struct {
	Dataset    string
	RelBound   float64
	CR         map[string]float64 // codec name -> compression ratio
	ImprovePct float64            // QoZ vs best non-QoZ, percent
}

// Table3 reproduces Table III: compression ratios of the five compressors
// under ε ∈ cfg.RelBounds, with QoZ in max-CR mode.
func Table3(w io.Writer, cfg Config) ([]Table3Cell, error) {
	section(w, "Table III — compression ratio at the same error bound")
	cs := lineup(qozCR)
	fmt.Fprintf(w, "%-12s %-7s", "dataset", "ε")
	for _, c := range cs {
		fmt.Fprintf(w, " %10s", c.Name)
	}
	fmt.Fprintf(w, " %9s\n", "improve%")
	var out []Table3Cell
	for _, ds := range cfg.Datasets() {
		for _, rel := range cfg.RelBounds {
			cell := Table3Cell{Dataset: ds.Name, RelBound: rel, CR: map[string]float64{}}
			for _, c := range cs {
				r, err := RunCodec(c, ds, rel)
				if err != nil {
					return nil, err
				}
				if r.MaxErr > r.AbsBound*(1+1e-12) {
					return nil, fmt.Errorf("%s violated bound on %s", c.Name, ds.Name)
				}
				cell.CR[c.Name] = r.CR
			}
			qozRatio := cell.CR["QoZ"]
			bestOther := 0.0
			for name, cr := range cell.CR {
				if name != "QoZ" && cr > bestOther {
					bestOther = cr
				}
			}
			cell.ImprovePct = (qozRatio/bestOther - 1) * 100
			out = append(out, cell)
			fmt.Fprintf(w, "%-12s %-7.0e", ds.Name, rel)
			for _, c := range cs {
				fmt.Fprintf(w, " %10.1f", cell.CR[c.Name])
			}
			fmt.Fprintf(w, " %8.1f%%\n", cell.ImprovePct)
		}
	}
	return out, nil
}

// ---- Figs. 8–10: rate-distortion curves ----

// RDPoint is one point of a rate–distortion curve.
type RDPoint struct {
	RelBound float64
	BitRate  float64
	PSNR     float64
	SSIM     float64
	AC       float64
}

// RDCurves maps codec name -> sweep of RD points for one dataset.
type RDCurves struct {
	Dataset string
	Curves  map[string][]RDPoint
}

// rateDistortion sweeps the line-up cs over cfg.Sweep for every dataset,
// printing each point as bit-rate and cell(point) in a name column of the
// given width.
func rateDistortion(w io.Writer, cfg Config, cs []Compressor, label string, width int,
	cell func(RDPoint) string) ([]RDCurves, error) {
	var out []RDCurves
	for _, ds := range cfg.Datasets() {
		rc := RDCurves{Dataset: ds.Name, Curves: map[string][]RDPoint{}}
		fmt.Fprintf(w, "\n[%s]%s\n%-*s", ds.Name, label, width, "codec")
		for _, rel := range cfg.Sweep {
			fmt.Fprintf(w, "  (ε=%.0e)", rel)
		}
		fmt.Fprintln(w)
		for _, c := range cs {
			var pts []RDPoint
			fmt.Fprintf(w, "%-*s", width, c.Name)
			for _, rel := range cfg.Sweep {
				r, err := RunCodec(c, ds, rel)
				if err != nil {
					return nil, err
				}
				p := RDPoint{RelBound: rel, BitRate: r.BitRate, PSNR: r.PSNR, SSIM: r.SSIM, AC: r.AC}
				pts = append(pts, p)
				fmt.Fprintf(w, "  %5.2fbpp/%s", p.BitRate, cell(p))
			}
			fmt.Fprintln(w)
			rc.Curves[c.Name] = pts
		}
		out = append(out, rc)
	}
	return out, nil
}

// Fig8 reproduces the rate–PSNR evaluation with QoZ in PSNR-preferred mode.
func Fig8(w io.Writer, cfg Config) ([]RDCurves, error) {
	section(w, "Fig. 8 — rate–PSNR (bit-rate bpp / PSNR dB)")
	return rateDistortion(w, cfg, lineup(qozPSNR), " rate-PSNR", 10,
		func(p RDPoint) string { return fmt.Sprintf("%-6.4g", p.PSNR) })
}

// Fig9 reproduces the rate–SSIM evaluation with QoZ in SSIM-preferred mode.
func Fig9(w io.Writer, cfg Config) ([]RDCurves, error) {
	section(w, "Fig. 9 — rate–SSIM (bit-rate bpp / SSIM)")
	return rateDistortion(w, cfg, lineup(qozSSIM), " rate-SSIM", 10,
		func(p RDPoint) string { return fmt.Sprintf("%-6.4g", p.SSIM) })
}

// Fig10 reproduces the rate–autocorrelation evaluation: SZ3 vs QoZ in
// PSNR-preferred mode vs QoZ in AC-preferred mode.
func Fig10(w io.Writer, cfg Config) ([]RDCurves, error) {
	section(w, "Fig. 10 — rate–AC(lag-1 of errors): SZ3 vs QoZ(psnr) vs QoZ(ac)")
	return rateDistortion(w, cfg, []Compressor{sz3, qozPSNR, qozAC}, "", 12,
		func(p RDPoint) string { return fmt.Sprintf("%+-6.3f", p.AC) })
}

// ---- Fig. 11: visual quality at the same compression ratio ----

// Fig11Result holds the PSNR of each codec at (approximately) the target CR.
type Fig11Result struct {
	Codec string
	CR    float64
	PSNR  float64
}

// Fig11 compares reconstruction PSNR of all codecs on SCALE-LETKF at a
// matched compression ratio (paper uses CR=65) and returns results sorted
// by PSNR descending. Middle-slice PGM renderings can be produced with
// RenderSlice for visual inspection.
func Fig11(w io.Writer, cfg Config, targetCR float64) ([]Fig11Result, error) {
	section(w, fmt.Sprintf("Fig. 11 — PSNR at matched compression ratio (target CR=%.0f, SCALE-LETKF)", targetCR))
	var ds datagen.Dataset
	for _, d := range cfg.Datasets() {
		if d.Name == "SCALE-LETKF" {
			ds = d
		}
	}
	var out []Fig11Result
	for _, c := range lineup(qozPSNR) {
		r, err := MatchCR(c, ds, targetCR)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig11Result{Codec: c.Name, CR: r.CR, PSNR: r.PSNR})
		fmt.Fprintf(w, "%-10s CR=%6.1f  PSNR=%6.2f dB\n", c.Name, r.CR, r.PSNR)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PSNR > out[j].PSNR })
	fmt.Fprintf(w, "best visual quality: %s\n", out[0].Codec)
	return out, nil
}

// ---- Fig. 12: ablation study ----

// Fig12Point is one (variant, bound) outcome.
type Fig12Point struct {
	Variant  string
	RelBound float64
	BitRate  float64
	PSNR     float64
}

// Fig12 reproduces the component ablation (CESM-ATM and Miranda): adding
// AP, S, LIS, and PA one by one should keep improving rate-distortion.
// The variants are the paper's five configurations: SZ3-like, +anchor
// points, +sampling, +level-wise interpolator selection, full QoZ.
func Fig12(w io.Writer, cfg Config) (map[string][]Fig12Point, error) {
	section(w, "Fig. 12 — ablation: SZ3 → +AP → +S → +LIS → QoZ (rate/PSNR)")
	q := qozCR.Codec
	variants := []Compressor{
		{"SZ3", q, qoz.Options{DisableAnchors: true, DisableSampling: true,
			DisableLevelSelect: true, DisableParamTuning: true}},
		{"SZ3+AP", q, qoz.Options{DisableSampling: true, DisableLevelSelect: true,
			DisableParamTuning: true}},
		{"SZ3+AP+S", q, qoz.Options{DisableLevelSelect: true, DisableParamTuning: true}},
		{"SZ3+AP+S+LIS", q, qoz.Options{DisableParamTuning: true}},
		{"QoZ", q, qozPSNR.Opts},
	}
	out := map[string][]Fig12Point{}
	err := sweepVariants(w, cfg, [2]string{"CESM-ATM", "Miranda"}, variants, func(ds string, r Run) {
		out[ds] = append(out[ds], Fig12Point{r.Codec, r.RelBound, r.BitRate, r.PSNR})
		fmt.Fprintf(w, "ε=%.0e %-14s %6.3f bpp  %6.2f dB\n", r.RelBound, r.Codec, r.BitRate, r.PSNR)
	})
	return out, err
}

// ---- Fig. 13: impact of (α, β) and auto-tuning ----

// Fig13Point is one (setting, bound) outcome.
type Fig13Point struct {
	Setting  string
	RelBound float64
	BitRate  float64
	PSNR     float64
}

// Fig13 compares fixed (α, β) settings with the auto-tuner on CESM-ATM and
// NYX (rate–PSNR), reproducing the paper's observation that the best fixed
// setting changes with bit-rate while auto-tuning tracks the envelope.
func Fig13(w io.Writer, cfg Config) (map[string][]Fig13Point, error) {
	section(w, "Fig. 13 — fixed (α,β) vs auto-tuning (rate/PSNR)")
	q := qozCR.Codec
	settings := []Compressor{
		{"a=1_b=1", q, qoz.Options{Metric: qoz.TuneFixed, Alpha: 1, Beta: 1}},
		{"a=1.5_b=3", q, qoz.Options{Metric: qoz.TuneFixed, Alpha: 1.5, Beta: 3}},
		{"a=2_b=4", q, qoz.Options{Metric: qoz.TuneFixed, Alpha: 2, Beta: 4}},
		{"autotuning", q, qozPSNR.Opts},
	}
	out := map[string][]Fig13Point{}
	err := sweepVariants(w, cfg, [2]string{"CESM-ATM", "NYX"}, settings, func(ds string, r Run) {
		out[ds] = append(out[ds], Fig13Point{r.Codec, r.RelBound, r.BitRate, r.PSNR})
		fmt.Fprintf(w, "ε=%.0e %-12s %6.3f bpp  %6.2f dB\n", r.RelBound, r.Codec, r.BitRate, r.PSNR)
	})
	return out, err
}

// sweepVariants runs every variant at every cfg.Sweep bound on the two
// named datasets, handing each run to record in order.
func sweepVariants(w io.Writer, cfg Config, sets [2]string, variants []Compressor,
	record func(dataset string, r Run)) error {
	for _, ds := range cfg.Datasets() {
		if ds.Name != sets[0] && ds.Name != sets[1] {
			continue
		}
		fmt.Fprintf(w, "\n[%s]\n", ds.Name)
		for _, rel := range cfg.Sweep {
			for _, v := range variants {
				r, err := RunCodec(v, ds, rel)
				if err != nil {
					return err
				}
				record(ds.Name, r)
			}
		}
	}
	return nil
}

// ---- Table IV: sequential speeds ----

// Table4Row is one dataset's speed figures.
type Table4Row struct {
	Dataset    string
	CompMBps   map[string]float64
	DecompMBps map[string]float64
}

// Table4 reproduces the compression/decompression speed table at ε=1e-3
// with QoZ in PSNR-preferred mode; each speed is the best of three runs.
func Table4(w io.Writer, cfg Config) ([]Table4Row, error) {
	section(w, "Table IV — compression/decompression speed (MB/s), ε=1e-3")
	cs := lineup(qozPSNR)
	var out []Table4Row
	for _, ds := range cfg.Datasets() {
		row := Table4Row{
			Dataset:    ds.Name,
			CompMBps:   map[string]float64{},
			DecompMBps: map[string]float64{},
		}
		for _, c := range cs {
			r, err := runCodec(c, ds, 1e-3, 3)
			if err != nil {
				return nil, err
			}
			mb := float64(ds.Len()*4) / 1e6
			row.CompMBps[c.Name] = mb / r.CompSecs
			row.DecompMBps[c.Name] = mb / r.DecompSecs
		}
		out = append(out, row)
	}
	for _, phase := range []string{"compress", "decompress"} {
		fmt.Fprintf(w, "\n%-12s", phase)
		for _, c := range cs {
			fmt.Fprintf(w, " %10s", c.Name)
		}
		fmt.Fprintln(w)
		for _, row := range out {
			fmt.Fprintf(w, "%-12s", row.Dataset)
			for _, c := range cs {
				v := row.CompMBps[c.Name]
				if phase == "decompress" {
					v = row.DecompMBps[c.Name]
				}
				fmt.Fprintf(w, " %10.0f", v)
			}
			fmt.Fprintln(w)
		}
	}
	return out, nil
}

// ---- Fig. 14: parallel data dumping/loading ----

// Fig14Point is one (codec, cores) throughput sample.
type Fig14Point struct {
	Codec    string
	Cores    int
	DumpGBps float64
	LoadGBps float64
	TotalTB  float64
	CR       float64
}

// Fig14 profiles every codec on the Hurricane workload and simulates
// parallel dumping/loading at 1K–8K cores × 1.3 GB/core on the Bebop-like
// machine model.
func Fig14(w io.Writer, cfg Config) ([]Fig14Point, error) {
	section(w, "Fig. 14 — parallel dump/load throughput (Hurricane, 1.3 GB/core)")
	var ds datagen.Dataset
	for _, d := range cfg.Datasets() {
		if d.Name == "Hurricane" {
			ds = d
		}
	}
	eb := 1e-3 * metrics.ValueRange(ds.Data)
	machine := parallelio.Bebop()
	coreCounts := []int{1024, 2048, 4096, 8192}
	var out []Fig14Point
	profiles := []parallelio.CodecProfile{parallelio.RawProfile()}
	for _, c := range lineup(qozCR) {
		p, err := parallelio.ProfileCodec(context.Background(), c.Codec, ds.Data, ds.Dims, c.at(eb))
		if err != nil {
			return nil, err
		}
		p.Name = c.Name
		profiles = append(profiles, p)
	}
	fmt.Fprintf(w, "%-10s %6s %10s %10s %9s %7s\n",
		"codec", "cores", "dump GB/s", "load GB/s", "total TB", "CR")
	for _, p := range profiles {
		for _, cores := range coreCounts {
			r, err := parallelio.Simulate(machine, p, cores, 1.3e9)
			if err != nil {
				return nil, err
			}
			pt := Fig14Point{
				Codec:    p.Name,
				Cores:    cores,
				DumpGBps: r.DumpGBps,
				LoadGBps: r.LoadGBps,
				TotalTB:  r.TotalGB / 1000,
				CR:       p.Ratio,
			}
			out = append(out, pt)
			fmt.Fprintf(w, "%-10s %6d %10.1f %10.1f %9.1f %7.1f\n",
				pt.Codec, cores, pt.DumpGBps, pt.LoadGBps, pt.TotalTB, pt.CR)
		}
	}
	return out, nil
}
