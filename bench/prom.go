package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a qozd /metrics page: every sample line,
// keyed by the series exactly as exposed (`name` or `name{labels}`).
type promSnapshot map[string]float64

// parseProm parses the Prometheus text exposition format as qozd writes it:
// `# HELP`/`# TYPE` comments and `series value` lines. A malformed line is
// an error — the harness would otherwise report deltas of numbers it never
// read.
func parseProm(text string) (promSnapshot, error) {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in line %q: %w", line, err)
		}
		snap[strings.TrimSpace(line[:i])] = v
	}
	return snap, sc.Err()
}

// sum adds every series of the family `name` whose label set contains all
// of the given `key="value"` fragments. Summing over the labels not named
// is what turns per-field or per-shard counters into process totals.
func (s promSnapshot) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range s {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// promDelta is the difference between two scrapes of one process.
type promDelta struct{ before, after promSnapshot }

func (d promDelta) sum(name string, labels ...string) float64 {
	return d.after.sum(name, labels...) - d.before.sum(name, labels...)
}
