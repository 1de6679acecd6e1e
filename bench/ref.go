package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// The machine index.
//
// The sandbox this benchmark runs on is a small virtual machine on a shared
// host. Identical runs of identical code differ there by 10–40 % as whole
// runs, because neighbours load the core's other hardware thread, the cache
// and the host's scheduler (NOISE.md); no estimator inside a run removes
// that, and longer runs do not either, since the load drifts over minutes.
//
// What does remove most of it is measuring the machine while measuring the
// program. The timed phase is cut into slices, and between slices the
// benchmark times small fixed kernels that share no code with the program
// under test and never change with it:
//
//   - predict: a 3-D Lorenzo predictor with quantisation and a histogram
//     over a 64³ float32 block — arithmetic on a dependency chain;
//   - stream: write and read passes over 128 KiB — load/store bandwidth of
//     the core and its private cache;
//   - loopback: HTTP GETs of a 128 KiB body from a server in this process —
//     kernel network stack, copies, the Go scheduler;
//   - relay: the same GETs through a chain of two more processes, a relay
//     that fetches the body from an origin — what loopback feels, plus
//     waking a sleeping process on a core the host may have given away.
//
// A probe's reading is each kernel's time over its nominal time (about what
// it takes on this sandbox; only a scale). The run's machine index is the
// geometric mean of all readings of all probes of the timed phase: 1 on the
// nominal machine, 1.2 on one that is 20 % slower right now. Every timed
// end-to-end metric is reported at index 1, that is divided (times) or
// multiplied (rates) by the run's index; the values as the machine gave
// them and the index are printed beside them.
//
// Neighbours slow the machine down in two ways that vary independently:
// they contend for the core and its caches, and they delay the wake-up of a
// process that waits for another. The two in-process workloads feel only
// the first, the two served workloads mostly the second: against relay
// alone, time per byte has slope 1.0 on gateway_hot and serve_scan, 0.7 on
// put_bricked and 0.3 on encode_field. So a workload's index uses the
// kernels that do what the workload does, equally weighted and nothing
// fitted: predict, stream and loopback for a workload that stays in one
// process, stream and relay for one that is a chain of processes. With
// these, over sets of ten runs, log(time per byte) regresses on log(index)
// with slope 0.8–1.1 on every workload, and spreads of 5–40 % become
// 2–9 % (NOISE.md).

type kernel int

const (
	predict kernel = iota
	stream
	loopback
	relay
)

var kernelNames = [...]string{"predict", "stream", "loopback", "relay"}

// nominal is each kernel's nominal time in ns. It only fixes the scale of
// the index.
var nominal = [...]float64{predict: 11.8e6, stream: 7.6e6, loopback: 9.7e6, relay: 10e6}

const (
	refEdge        = 64
	predictReps    = 2
	streamPasses   = 384
	streamWords    = 16 << 10 // 128 KiB of uint64
	loopbackGets   = 80
	relayGets      = 20
	refBodyBytes   = 128 << 10
	refQuantum     = 1e-3
	refQuantumInv  = 1 / (2 * refQuantum)
	histogramSlots = 1 << 16
)

// reference holds the kernels a workload's index uses, their buffers, the
// loopback server and the relay's two processes.
type reference struct {
	kernels []kernel

	in, rec []float32
	hist    []uint32
	words   []uint64
	sink    uint64

	srv      *http.Server // loopback
	children []*exec.Cmd  // relay: origin, relay
	url      string       // of the loopback server or the relay
	cl       *http.Client
	rbuf     []byte
}

// newReference prepares the kernels of a served workload (a chain of
// processes) or of an in-process one.
func newReference(served bool) (r *reference, err error) {
	r = &reference{
		words: make([]uint64, streamWords),
		cl:    &http.Client{Transport: &http.Transport{DisableCompression: true}},
		rbuf:  make([]byte, 32<<10),
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if served {
		r.kernels = []kernel{stream, relay}
		origin, err := r.startChild("")
		if err != nil {
			return nil, err
		}
		if r.url, err = r.startChild(origin); err != nil {
			return nil, err
		}
	} else {
		r.kernels = []kernel{predict, stream, loopback}
		n := refEdge * refEdge * refEdge
		r.in, r.rec, r.hist = make([]float32, n), make([]float32, n), make([]uint32, histogramSlots)
		i := 0
		for z := 0; z < refEdge; z++ {
			for y := 0; y < refEdge; y++ {
				for x := 0; x < refEdge; x++ {
					r.in[i] = float32(math.Sin(float64(z)*0.11)*math.Cos(float64(y)*0.07) + 0.3*math.Sin(float64(x)*0.23+float64(z)*0.05))
					i++
				}
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.url = "http://" + ln.Addr().String() + "/"
		r.srv = &http.Server{Handler: refHandler("")}
		go r.srv.Serve(ln)
	}
	_, err = r.probe() // connections, pools, page faults
	return r, err
}

// close stops the loopback server and kills and reaps the relay's processes.
func (r *reference) close() {
	r.cl.CloseIdleConnections()
	if r.srv != nil {
		r.srv.Close()
	}
	for _, c := range r.children {
		c.Process.Kill()
		c.Wait()
	}
}

// startChild runs this binary as one of the relay kernel's two servers —
// the origin, or with an upstream the relay — with the environment every
// process under test has, and returns the URL it printed. Like a qozd
// child it cannot outlive the benchmark.
func (r *reference) startChild(upstream string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-refserver", "-refupstream", upstream)
	cmd.Env = childEnv
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	r.children = append(r.children, cmd)
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("reference server: %w", err)
	}
	return strings.TrimSpace(line), nil
}

// refServerMain is a reference server process: it prints its URL and serves
// until it is killed.
func refServerMain(upstream string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println("http://" + ln.Addr().String() + "/")
	return http.Serve(ln, refHandler(upstream))
}

// refHandler answers every request with the fixed body: its own, or with an
// upstream the one it fetches from there.
func refHandler(upstream string) http.Handler {
	body := make([]byte, refBodyBytes)
	cl := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if upstream == "" {
			w.Write(body)
			return
		}
		resp, err := cl.Get(upstream)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		io.Copy(w, resp.Body)
	})
}

// reading is one probe: the time of each of the reference's kernels over
// its nominal time.
type reading []float64

// probe runs the reference's kernels once, 20 to 30 ms in all.
func (r *reference) probe() (reading, error) {
	out := make(reading, len(r.kernels))
	for i, k := range r.kernels {
		t := time.Now()
		switch k {
		case predict:
			for n := 0; n < predictReps; n++ {
				r.sink += lorenzo(r.in, r.rec, refEdge, r.hist)
			}
		case stream:
			x := r.sink
			for p := 0; p < streamPasses; p++ {
				for i := range r.words {
					r.words[i] = x + uint64(i)
				}
				for _, v := range r.words {
					x += v
				}
			}
			r.sink = x
		case loopback:
			if err := r.get(loopbackGets); err != nil {
				return nil, err
			}
		case relay:
			if err := r.get(relayGets); err != nil {
				return nil, err
			}
		}
		out[i] = float64(time.Since(t)) / nominal[k]
	}
	return out, nil
}

// get fetches the fixed body n times, one request after the other.
func (r *reference) get(n int) error {
	for ; n > 0; n-- {
		resp, err := r.cl.Get(r.url)
		if err != nil {
			return err
		}
		got := 0
		for err == nil {
			var m int
			m, err = resp.Body.Read(r.rbuf)
			got += m
		}
		resp.Body.Close()
		if err != io.EOF || got != refBodyBytes {
			return fmt.Errorf("reference GET: %d bytes of %d, %v", got, refBodyBytes, err)
		}
	}
	return nil
}

// lorenzo predicts every interior point from its reconstructed neighbours,
// quantises the residual, reconstructs, and histograms the code.
func lorenzo(in, rec []float32, edge int, hist []uint32) uint64 {
	s1, s2 := edge, edge*edge
	var acc uint64
	for z := 1; z < edge; z++ {
		for y := 1; y < edge; y++ {
			base := z*s2 + y*s1
			for x := 1; x < edge; x++ {
				i := base + x
				p := rec[i-1] + rec[i-s1] + rec[i-s2] - rec[i-1-s1] - rec[i-1-s2] - rec[i-s1-s2] + rec[i-1-s1-s2]
				q := int32(math.Floor(float64((in[i]-p)*refQuantumInv + 0.5)))
				rec[i] = p + float32(q)*2*refQuantum
				hist[uint16(q+histogramSlots/2)]++
				acc += uint64(uint32(q))
			}
		}
	}
	return acc
}

// machineIndex is the geometric mean of every kernel reading of every
// probe: 1 on the nominal machine, above 1 on a slower one.
func machineIndex(probes []reading) float64 {
	var sum float64
	n := 0
	for _, p := range probes {
		for _, v := range p {
			sum += math.Log(v)
			n++
		}
	}
	return math.Exp(sum / float64(n))
}

// kernelIndex is the geometric mean of the i-th kernel's readings.
func kernelIndex(probes []reading, i int) float64 {
	var sum float64
	for _, p := range probes {
		sum += math.Log(p[i])
	}
	return math.Exp(sum / float64(len(probes)))
}
