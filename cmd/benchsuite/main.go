// Command benchsuite regenerates the tables and figures of the QoZ paper's
// evaluation section on the synthetic dataset analogs and prints them in a
// paper-style textual form.
//
// Usage:
//
//	benchsuite [-exp all|fig4|fig7|table3|fig8|fig9|fig10|fig11|fig12|fig13|table4|fig14]
//	           [-size default|small] [-render DIR] [-cr N] [-list]
//
// -render DIR additionally writes PGM images for the Fig. 11 visual
// comparison (original plus every codec's reconstruction at matched CR).
//
// It prints the paper's evaluation and nothing else: performance numbers
// come from bench/run.sh (see docs/PERFORMANCE.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qoz"
	"qoz/internal/harness"
)

// params is what the flags hand every experiment.
type params struct {
	cfg      harness.Config
	render   string
	targetCR float64
}

// experiments lists the paper artifacts in the order "-exp all" prints them.
var experiments = []struct {
	id  string
	run func(w io.Writer, p params) error
}{
	{"fig4", func(w io.Writer, p params) error { _, err := harness.Fig4(w, p.cfg, p.render); return err }},
	{"fig7", func(w io.Writer, p params) error { _, err := harness.Fig7(w, p.cfg); return err }},
	{"table3", func(w io.Writer, p params) error { _, err := harness.Table3(w, p.cfg); return err }},
	{"fig8", func(w io.Writer, p params) error { _, err := harness.Fig8(w, p.cfg); return err }},
	{"fig9", func(w io.Writer, p params) error { _, err := harness.Fig9(w, p.cfg); return err }},
	{"fig10", func(w io.Writer, p params) error { _, err := harness.Fig10(w, p.cfg); return err }},
	{"fig11", func(w io.Writer, p params) error {
		if _, err := harness.Fig11(w, p.cfg, p.targetCR); err != nil {
			return err
		}
		if p.render != "" {
			files, err := harness.Fig11Render(p.render, p.cfg, p.targetCR)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "rendered: %s\n", strings.Join(files, ", "))
		}
		return nil
	}},
	{"fig12", func(w io.Writer, p params) error { _, err := harness.Fig12(w, p.cfg); return err }},
	{"fig13", func(w io.Writer, p params) error { _, err := harness.Fig13(w, p.cfg); return err }},
	{"table4", func(w io.Writer, p params) error { _, err := harness.Table4(w, p.cfg); return err }},
	{"fig14", func(w io.Writer, p params) error { _, err := harness.Fig14(w, p.cfg); return err }},
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	}
}

// run is main without the process: it parses args and prints the selected
// experiments to w.
func run(args []string, w io.Writer) error {
	ids := []string{"all"}
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	valid := strings.Join(ids, ", ")

	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id ("+valid+")")
	size := fs.String("size", "default", "dataset sizes: default or small")
	render := fs.String("render", "", "directory for Fig. 11 PGM renderings (optional)")
	targetCR := fs.Float64("cr", 65, "Fig. 11 target compression ratio")
	list := fs.Bool("list", false, "list the registered codecs the suite sweeps and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range qoz.Codecs() {
			c, err := qoz.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s stream id %d\n", name, c.ID())
		}
		return nil
	}

	p := params{cfg: harness.Default(), render: *render, targetCR: *targetCR}
	if *size == "small" {
		p.cfg = harness.Quick()
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		if err := e.run(w, p); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, valid)
	}
	return nil
}
