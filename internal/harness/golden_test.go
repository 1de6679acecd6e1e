package harness

// Rate-distortion golden. The paper's own comparison — QoZ against SZ2,
// SZ3, ZFP and MGARD at the same error bound — as one committed text
// table: Table III's compression ratios (QoZ in max-CR mode) and Fig. 8's
// bit-rate and PSNR (QoZ in PSNR-preferred mode) for every codec × dataset
// × bound at Quick() sizes. Every codec here is deterministic, so a row
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

	"qoz"
)

const rdGoldenPath = "testdata/rate_distortion_golden.txt"

func rateDistortionRows(t *testing.T) []string {
	cfg := Quick()
	var rows []string
	cells, err := Table3(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crCodecs := codecs(qoz.TuneCR)
	for _, cell := range cells {
		for _, c := range crCodecs {
			rows = append(rows, fmt.Sprintf("table3 %-11s ε=%.0e %-9s cr=%.4f",
				cell.Dataset, cell.RelBound, c.Name(), cell.CR[c.Name()]))
		}
	}
	curves, err := Fig8(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	psnrCodecs := codecs(qoz.TunePSNR)
	for _, rc := range curves {
		for _, c := range psnrCodecs {
			for _, p := range rc.Curves[c.Name()] {
				rows = append(rows, fmt.Sprintf("fig8   %-11s ε=%.0e %-9s bpp=%.5f psnr=%.4f",
					rc.Dataset, p.RelBound, c.Name(), p.BitRate, p.PSNR))
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
