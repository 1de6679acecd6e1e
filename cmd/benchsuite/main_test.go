package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qoz"
	"qoz/internal/harness"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("benchsuite %v: %v", args, err)
	}
	return out.String()
}

func TestListNamesEveryCodec(t *testing.T) {
	out := runOK(t, "-list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(qoz.Codecs()) {
		t.Fatalf("-list printed %d lines for %d codecs:\n%s", len(lines), len(qoz.Codecs()), out)
	}
	for i, name := range qoz.Codecs() {
		if !strings.HasPrefix(lines[i], name+" ") || !strings.Contains(lines[i], "stream id") {
			t.Errorf("line %d = %q, want codec %q", i, lines[i], name)
		}
	}
}

// rowsFor counts the printed lines that start with a "<dataset> <bound>"
// cell of the given width.
func rowsFor(out, format string, datasets []string, bounds []float64) (found, want int) {
	for _, ds := range datasets {
		for _, rel := range bounds {
			want++
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, fmt.Sprintf(format, ds, rel)) {
					found++
				}
			}
		}
	}
	return found, want
}

func TestFig7SmallPrintsOneRowPerDatasetAndBound(t *testing.T) {
	out := runOK(t, "-exp", "fig7", "-size", "small")
	if !strings.Contains(out, "Fig. 7 — compression error distribution (QoZ)\n====") {
		t.Fatalf("missing Fig. 7 header:\n%s", out)
	}
	found, want := rowsFor(out, "%-10s ε=%.0e ", []string{"CESM-ATM", "NYX"}, []float64{1e-3, 1e-4})
	if found != want || strings.Count(out, "histogram[-e..+e]") != want {
		t.Fatalf("got %d rows, want %d, each with its histogram:\n%s", found, want, out)
	}
	if strings.Contains(out, "Table III") {
		t.Fatalf("-exp fig7 also ran another experiment:\n%s", out)
	}
}

func TestTable3SmallPrintsOneRowPerDatasetAndBound(t *testing.T) {
	out := runOK(t, "-exp", "table3", "-size", "small")
	if !strings.Contains(out, "Table III — compression ratio at the same error bound\n====") ||
		!strings.Contains(out, "improve%\n") {
		t.Fatalf("missing Table III headers:\n%s", out)
	}
	cfg := harness.Quick()
	var names []string
	for _, ds := range cfg.Datasets() {
		names = append(names, ds.Name)
	}
	found, want := rowsFor(out, "%-12s %-7.0e", names, cfg.RelBounds)
	if found != want {
		t.Fatalf("got %d rows, want %d:\n%s", found, want, out)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "bogus"}, &out)
	if err == nil {
		t.Fatalf("-exp bogus succeeded, printing %q", out.String())
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.id) {
			t.Errorf("error %q does not list %q", err, e.id)
		}
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "all") {
		t.Errorf("error %q should name the bad id and \"all\"", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.String())
	}
}
