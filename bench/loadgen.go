package main

import (
	"fmt"
	"sync"
	"time"
)

// opFunc performs operation number seq of one client and returns its timed
// interval (relative to origin) and raw bytes. It checks the op's output
// itself, after taking the end time, and reports a wrong or failed op as an
// error; the loop counts it and goes on.
type opFunc func(client, seq int, origin time.Time) (sample, error)

// epochMin is the least length of an epoch.
const epochMin = time.Second

// phase is the outcome of one closed-loop run.
type phase struct {
	samples  []sample
	failed   int
	firstErr error
	wall     time.Duration   // summed length of the slices: the time ops could run
	marks    []time.Duration // epoch boundaries, the first at the origin
	cpu      float64         // CPU seconds the processes under test used
	peakRSS  int64           // their summed VmHWM at the end, bytes
	probes   []reading       // the machine, before the first slice and after each
}

func (p *phase) bytes() int64 {
	var n int64
	for _, s := range p.samples {
		n += s.bytes
	}
	return n
}

// mbps is raw MB completed per second of the phase's wall time, on the
// machine as it was.
func (p *phase) mbps() float64 { return float64(p.bytes()) / 1e6 / p.wall.Seconds() }

// epochMBps is the throughput of each epoch. It is a reading of how steady
// the machine was during the run (loadgen.epoch_spread), not a metric of
// the program: medians over epochs were tried for throughput and CPU cost
// and repeat no better from run to run than the plain totals (NOISE.md).
func (p *phase) epochMBps() []float64 {
	var out []float64
	for i := 1; i < len(p.marks); i++ {
		var b int64
		for _, s := range p.samples {
			if s.end > p.marks[i-1] && s.end <= p.marks[i] {
				b += s.bytes
			}
		}
		out = append(out, float64(b)/1e6/(p.marks[i]-p.marks[i-1]).Seconds())
	}
	return out
}

// sliceLen is how long the clients run between two probes of the machine:
// each client issues ops until sliceLen has passed (at least one), then all
// wait while the reference kernels run. A store write takes longer than
// that and an encode about as long, so those workloads are probed after
// every op or two.
const sliceLen = 250 * time.Millisecond

// runClosed drives `clients` closed loops for dur: each client issues its
// next op only when its previous one has completed, because every caller
// this system has — a dump loop, an analysis script, the gateway — waits
// for its reply. The phase is cut into slices with a probe of the machine
// (ref.go) before the first and after every one; dur covers both, wall only
// the slices. CPU time of the given processes is read from /proc around
// each slice and their peak memory at the end. The phase is also cut into
// epochs of at least epochMin, each ending where every client has done a
// whole number of op cycles of `cycle` ops, so that all epochs hold the
// same kind of work.
func runClosed(ref *reference, clients int, dur time.Duration, cycle int, pids []int, op opFunc) (*phase, error) {
	out := &phase{marks: []time.Duration{0}}
	per := make([]phase, clients)
	seqs := make([]int, clients)
	probe := func() error {
		r, err := ref.probe()
		out.probes = append(out.probes, r)
		return err
	}
	origin := time.Now()
	if err := probe(); err != nil {
		return nil, err
	}
	for time.Since(origin) < dur {
		cpu0, err := cpuOf(pids)
		if err != nil {
			return nil, err
		}
		start := time.Since(origin)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				p := &per[c]
				for first := true; first || time.Since(origin)-start < sliceLen; first = false {
					seq := seqs[c]
					seqs[c]++
					s, err := op(c, seq, origin)
					if err != nil {
						p.failed++
						if p.firstErr == nil {
							p.firstErr = fmt.Errorf("client %d op %d: %w", c, seq, err)
						}
						continue
					}
					p.samples = append(p.samples, s)
				}
			}(c)
		}
		wg.Wait()
		end := time.Since(origin)
		cpu1, err := cpuOf(pids)
		if err != nil {
			return nil, err
		}
		out.wall += end - start
		out.cpu += cpu1 - cpu0
		if err := probe(); err != nil {
			return nil, err
		}
		if seqs[0]%cycle == 0 && end-out.marks[len(out.marks)-1] >= epochMin {
			out.marks = append(out.marks, time.Since(origin))
		}
	}
	for i := range per {
		out.samples = append(out.samples, per[i].samples...)
		out.failed += per[i].failed
		if out.firstErr == nil {
			out.firstErr = per[i].firstErr
		}
	}
	var err error
	if out.peakRSS, err = peakRSSOf(pids); err != nil {
		return nil, err
	}
	if len(out.samples) == 0 {
		return out, fmt.Errorf("no operation completed (first error: %v)", out.firstErr)
	}
	return out, nil
}
