package harness

// Rate-distortion golden. The paper's own comparison — QoZ against SZ2,
// SZ3, ZFP and MGARD at the same error bound — as one committed text
// table: Table III's compression ratios (QoZ in max-CR mode), Fig. 8's
// bit-rate and PSNR, Fig. 9's bit-rate and SSIM and Fig. 10's bit-rate and
// error autocorrelation (QoZ in the figure's tuning mode) for every codec
// × dataset × bound at Quick() sizes. Every codec here is deterministic, so a row
// that changes means a codec's rate or distortion moved: that is a tuning
// or format change and must be argued as one in review, never fixed by
// regenerating the table to make a change pass. (A failing run logs the
// whole table as produced, for the change that has made that argument.)
// Pinned on amd64, like TestEncoderBytesGolden, where neither datagen nor
// the codecs' float arithmetic is subject to FMA contraction.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

const rdGoldenPath = "testdata/rate_distortion_golden.txt"

func rateDistortionRows(t *testing.T) []string {
	cfg := Quick()
	var rows []string
	cells, err := Table3(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		for _, c := range lineup(qozCR) {
			rows = append(rows, fmt.Sprintf("table3 %-11s ε=%.0e %-9s cr=%.4f",
				cell.Dataset, cell.RelBound, c.Name, cell.CR[c.Name]))
		}
	}
	// Each figure's rows follow its own line-up, named as the paper names
	// it, so a codec renamed, dropped or reordered moves rows too.
	for _, fig := range []struct {
		tag   string
		run   func(io.Writer, Config) ([]RDCurves, error)
		names []string
		value func(RDPoint) string
	}{
		{"fig8 ", Fig8, []string{"SZ2.1", "SZ3", "ZFP", "MGARD+", "QoZ(psnr)"},
			func(p RDPoint) string { return fmt.Sprintf("psnr=%.4f", p.PSNR) }},
		{"fig9 ", Fig9, []string{"SZ2.1", "SZ3", "ZFP", "MGARD+", "QoZ(ssim)"},
			func(p RDPoint) string { return fmt.Sprintf("ssim=%.8f", p.SSIM) }},
		{"fig10", Fig10, []string{"SZ3", "QoZ(psnr)", "QoZ(ac)"},
			func(p RDPoint) string { return fmt.Sprintf("ac=%+.6f", p.AC) }},
	} {
		curves, err := fig.run(io.Discard, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range curves {
			if len(rc.Curves) != len(fig.names) {
				t.Errorf("%s %s: %d curves, want %d", fig.tag, rc.Dataset, len(rc.Curves), len(fig.names))
			}
			for _, name := range fig.names {
				for _, p := range rc.Curves[name] {
					rows = append(rows, fmt.Sprintf("%s  %-11s ε=%.0e %-9s bpp=%.5f %s",
						fig.tag, rc.Dataset, p.RelBound, name, p.BitRate, fig.value(p)))
				}
			}
		}
	}
	return rows
}

func TestRateDistortionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("rate-distortion golden table is pinned on amd64")
	}
	raw, err := os.ReadFile(rdGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := rateDistortionRows(t)
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "(no row)", "(no row)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("rate-distortion moved:\n  got  %s\n  want %s", g, w)
		}
	}
	if t.Failed() {
		t.Logf("table as produced by this tree:\n%s", strings.Join(got, "\n"))
	}
}
