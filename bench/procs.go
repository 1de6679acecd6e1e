package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every process under test runs with the same scheduler and collector
// settings; the benchmark process applies them to itself in main.
const (
	benchMaxProcs = 2
	benchGCPct    = 100
)

// childEnv is the whole environment of every child process.
var childEnv = []string{
	"GOMAXPROCS=" + strconv.Itoa(benchMaxProcs),
	"GOGC=" + strconv.Itoa(benchGCPct),
}

// basePort is the first loopback port tried. Ports are fixed, not
// ephemeral, because cluster.Placement hashes shard base URLs: a different
// port gives a different brick-to-shard plan and a different number of
// sub-reads per gateway request, which would make runs incomparable.
const basePort = 47610

// procs owns the benchmark's work directory and every child process. All
// of it is released by close, which main also runs on error and SIGINT.
type procs struct {
	qozd string // path of the qozd binary under test
	work string

	mu       sync.Mutex
	children []*child
	nextPort int
}

type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait has returned
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// newProcs prepares an empty work directory. It refuses to start while a
// qozd recorded by an earlier run is still alive: two sets of servers would
// share the cores and the fixed ports, and neither run would mean anything.
func newProcs(qozd, work string) (*procs, error) {
	pidFile := filepath.Join(work, "children.pid")
	if buf, err := os.ReadFile(pidFile); err == nil {
		for _, f := range strings.Fields(string(buf)) {
			pid, _ := strconv.Atoi(f)
			if pid > 0 && isQozd(pid) {
				return nil, fmt.Errorf("a previous run's qozd (pid %d) is still alive; stop it first", pid)
			}
		}
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &procs{qozd: qozd, work: work, nextPort: basePort}, nil
}

func isQozd(pid int) bool {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	return err == nil && strings.Contains(string(buf), "qozd")
}

// freePort returns the next loopback port nothing listens on.
func (p *procs) freePort() (int, error) {
	for try := 0; try < 64; try++ {
		port := p.nextPort
		p.nextPort++
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue
		}
		ln.Close()
		return port, nil
	}
	return 0, errors.New("no free loopback port")
}

// start launches qozd with the given arguments on a free port and waits
// for /readyz. A child that exits before it is ready (typically a port
// taken between the probe and the bind) is retried on the next port.
func (p *procs) start(name string, args ...string) (*child, error) {
	var lastErr error
	for try := 0; try < 4; try++ {
		port, err := p.freePort()
		if err != nil {
			return nil, err
		}
		c, err := p.launch(name, port, args)
		if err != nil {
			return nil, err
		}
		if lastErr = c.waitReady(10 * time.Second); lastErr == nil {
			return c, nil
		}
		p.stop(c)
	}
	return nil, fmt.Errorf("%s did not become ready: %w", name, lastErr)
}

func (p *procs) launch(name string, port int, args []string) (*child, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(filepath.Join(p.work, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(p.qozd, append([]string{"-listen", addr}, args...)...)
	cmd.Env = childEnv
	cmd.Stdout, cmd.Stderr = logf, logf
	// A child must never outlive the benchmark, however the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() // exit status is irrelevant: children are always killed
		close(c.done)
	}()
	p.mu.Lock()
	p.children = append(p.children, c)
	p.writePids()
	p.mu.Unlock()
	return c, nil
}

// writePids records the live children for the next run's start-up check.
func (p *procs) writePids() {
	var sb strings.Builder
	for _, c := range p.children {
		fmt.Fprintf(&sb, "%d\n", c.pid())
	}
	os.WriteFile(filepath.Join(p.work, "children.pid"), []byte(sb.String()), 0o644)
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return errors.New("exited before ready (see " + c.log.Name() + ")")
		default:
		}
		resp, err := http.Get(c.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("/readyz not OK in " + limit.String())
}

// stop kills one child and waits until it has been reaped.
func (p *procs) stop(c *child) {
	c.cmd.Process.Kill()
	<-c.done
	c.log.Close()
	p.mu.Lock()
	for i, x := range p.children {
		if x == c {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	p.writePids()
	p.mu.Unlock()
}

func (p *procs) stopAll() {
	p.mu.Lock()
	cs := append([]*child(nil), p.children...)
	p.mu.Unlock()
	for _, c := range cs {
		p.stop(c)
	}
	p.mu.Lock()
	p.nextPort = basePort
	p.mu.Unlock()
}

// close stops every child and removes the work directory.
func (p *procs) close() {
	p.stopAll()
	os.RemoveAll(p.work)
}

// procCPU returns the user+system CPU seconds a process has used, from
// /proc/<pid>/stat (clock ticks of 1/100 s on Linux).
func procCPU(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis.
	s := string(buf)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100, nil
}

// procPeakRSS returns a process's resident-set high-water mark in bytes
// (VmHWM of /proc/<pid>/status).
func procPeakRSS(pid int) (int64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func cpuOf(pids []int) (cpu float64, err error) {
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		cpu += c
	}
	return cpu, nil
}

func peakRSSOf(pids []int) (rss int64, err error) {
	for _, pid := range pids {
		r, err := procPeakRSS(pid)
		if err != nil {
			return 0, err
		}
		rss += r
	}
	return rss, nil
}
