package harness

import (
	"fmt"
	"os"
	"path/filepath"
)

// Fig11Render writes PGM images of the SCALE-LETKF middle slice for the
// original field and every codec's reconstruction at (approximately) the
// target compression ratio, into dir. It returns the written file paths.
func Fig11Render(dir string, cfg Config, targetCR float64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, ds := range cfg.Datasets() {
		if ds.Name != "SCALE-LETKF" {
			continue
		}
		lo, hi := sliceRange(ds.Data, ds.Dims)
		path := filepath.Join(dir, "original.pgm")
		if err := writePGM(path, ds.Data, ds.Dims, lo, hi); err != nil {
			return nil, err
		}
		written = append(written, path)
		for _, c := range lineup(qozPSNR) {
			r, err := MatchCR(c, ds, targetCR)
			if err != nil {
				return nil, err
			}
			name := sanitize(c.Name)
			path := filepath.Join(dir, fmt.Sprintf("%s_cr%.0f_psnr%.1f.pgm", name, r.CR, r.PSNR))
			if err := writePGM(path, r.Recon, ds.Dims, lo, hi); err != nil {
				return nil, err
			}
			written = append(written, path)
		}
	}
	return written, nil
}

// sliceRange returns the rendered slice's value range so that original and
// reconstructions share one color scale.
func sliceRange(data []float32, dims []int) (float32, float32) {
	off, n := 0, len(data)
	if len(dims) == 3 {
		plane := dims[1] * dims[2]
		off = (dims[0] / 2) * plane
		n = plane
	}
	lo, hi := data[off], data[off]
	for _, v := range data[off : off+n] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func writePGM(path string, data []float32, dims []int, lo, hi float32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := RenderSlice(f, data, dims, lo, hi); err != nil {
		return err
	}
	return f.Close()
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
