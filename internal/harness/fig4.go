package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"qoz/datagen"
	"qoz/internal/grid"
	"qoz/metrics"
)

// Fig4Result quantifies the long-range-interpolation artifact the paper's
// Fig. 4 visualizes: under the same bound, SZ3's global interpolation
// produces spatially clustered (high-autocorrelation) errors on data with
// regionally varying smoothness, while SZ2's local prediction and QoZ's
// anchored interpolation keep errors more local.
type Fig4Result struct {
	Codec string
	// ErrAC is the lag-1 autocorrelation of the error field: clustered
	// artifacts show up as high values.
	ErrAC float64
	// ClusterScore is the fraction of error energy concentrated in the
	// top 1% most energetic 8^d error tiles — a direct "artifact patch"
	// measure.
	ClusterScore float64
}

// Fig4 reproduces the paper's motivating comparison on the Hurricane field
// at ε=1e-2 and optionally renders error maps as PGM files in renderDir
// (empty string disables rendering).
func Fig4(w io.Writer, cfg Config, renderDir string) ([]Fig4Result, error) {
	section(w, "Fig. 4 — compression-error artifacts (Hurricane, ε=1e-2)")
	var ds datagen.Dataset
	for _, d := range cfg.Datasets() {
		if d.Name == "Hurricane" {
			ds = d
		}
	}
	var out []Fig4Result
	for _, c := range []Compressor{sz2, sz3, qozCR} {
		r, err := RunCodec(c, ds, 1e-2)
		if err != nil {
			return nil, err
		}
		errField := make([]float32, ds.Len())
		for i := range errField {
			errField[i] = ds.Data[i] - r.Recon[i]
		}
		res := Fig4Result{
			Codec:        c.Name,
			ErrAC:        r.AC,
			ClusterScore: clusterScore(errField, ds.Dims),
		}
		out = append(out, res)
		fmt.Fprintf(w, "%-8s error AC(lag1)=%+.3f  top-1%%-tile energy share=%.3f\n",
			res.Codec, res.ErrAC, res.ClusterScore)
		if renderDir != "" {
			if err := os.MkdirAll(renderDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(renderDir, "fig4_err_"+sanitize(c.Name)+".pgm")
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			eb := 1e-2 * metrics.ValueRange(ds.Data)
			renderErr := RenderSlice(f, errField, ds.Dims, float32(-eb), float32(eb))
			if cerr := f.Close(); renderErr == nil {
				renderErr = cerr
			}
			if renderErr != nil {
				return nil, renderErr
			}
			fmt.Fprintf(w, "  rendered %s\n", path)
		}
	}
	return out, nil
}

// clusterScore tiles the error field into 8^d blocks and returns the share
// of total squared error held by the top 1% of tiles.
func clusterScore(errField []float32, dims []int) float64 {
	const edge = 8
	var zero grid.Coord
	var energies []float64
	var total float64
	grid.EachTile(dims, edge, func(origin, size []int) {
		var e float64
		w := grid.Walk(size, dims, origin, 1, size, zero[:len(size)])
		for w.Next() {
			for _, x := range errField[w.A : w.A+w.Run] {
				v := float64(x)
				e += v * v
			}
		}
		energies = append(energies, e)
		total += e
	})
	if total == 0 || len(energies) == 0 {
		return 0
	}
	// Select the top 1% (at least one tile).
	k := len(energies) / 100
	if k < 1 {
		k = 1
	}
	// Partial selection via simple sort of a copy (tile counts are small).
	sortDesc(energies)
	var top float64
	for i := 0; i < k; i++ {
		top += energies[i]
	}
	return top / total
}

func sortDesc(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
