package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// calibration is a reading of the machine itself, taken before and after
// the timed phase with two fixed kernels that share no code with the
// program under test. It lets a reader tell a slow machine from a slow
// program; it is never used to rescale a metric.
type calibration struct {
	intMops float64 // integer-hash kernel, million iterations per second
	memMBps float64 // streaming write+read over 64 MiB, MB/s
}

var calibSink uint64

func calibrate() calibration {
	const iters = 1 << 26
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	intDur := time.Since(t)

	const words = 8 << 20 // 64 MiB: well past the last-level cache
	buf := make([]uint64, words)
	for i := range buf { // first touch: page faults are not bandwidth
		buf[i] = 1
	}
	t = time.Now()
	const passes = 2
	for p := 0; p < passes; p++ {
		for i := range buf {
			buf[i] = x + uint64(i)
		}
		for _, v := range buf {
			x += v
		}
	}
	memDur := time.Since(t)
	calibSink = x
	return calibration{
		intMops: iters / 1e6 / intDur.Seconds(),
		memMBps: passes * 2 * words * 8 / 1e6 / memDur.Seconds(),
	}
}

// resetPeakRSS makes this process's VmHWM start again from its current
// resident set, after handing freed memory back to the system: without it
// the peak of an in-process workload would be set by input generation and
// the calibration buffer, not by the ops under test. Writing 5 to
// clear_refs is the kernel's interface for this; where it is refused the
// peak simply keeps covering set-up as well.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}
