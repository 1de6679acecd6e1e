// Package parallelio models the paper's Fig. 14 experiment: dumping and
// loading multi-terabyte simulation state through error-bounded lossy
// compressors on a supercomputer with a shared parallel filesystem.
//
// The original experiment ran the Hurricane-Isabel workload on 1K–8K Bebop
// cores (1.3 GB/core). That hardware is substituted by an analytic
// model: per-core compression runs perfectly in parallel, while
// filesystem bandwidth aggregates only until it saturates at the machine's
// peak — which is exactly the regime where higher compression ratios win.
// Codec speed and ratio profiles are measured on real (scaled) data via
// ProfileCodec, then extrapolated by Simulate.
package parallelio

import (
	"context"
	"errors"
	"time"

	"qoz"
	"qoz/metrics"
)

// CodecProfile carries the measured sequential characteristics of one
// compressor on one workload.
type CodecProfile struct {
	Name           string
	CompressMBps   float64
	DecompressMBps float64
	Ratio          float64 // original bytes / compressed bytes
}

// Machine describes the I/O capability of the target system.
type Machine struct {
	// PerCoreWriteMBps / PerCoreReadMBps bound a single core's share of
	// filesystem bandwidth before saturation.
	PerCoreWriteMBps float64
	PerCoreReadMBps  float64
	// PeakWriteGBps / PeakReadGBps are the filesystem's saturating
	// aggregate bandwidths.
	PeakWriteGBps float64
	PeakReadGBps  float64
}

// Bebop returns a machine model calibrated to the paper's description of
// the Argonne Bebop system: bandwidth saturates in the low tens of GB/s,
// far below the aggregate demand of thousands of cores dumping raw data.
func Bebop() Machine {
	return Machine{
		PerCoreWriteMBps: 150,
		PerCoreReadMBps:  200,
		PeakWriteGBps:    12,
		PeakReadGBps:     18,
	}
}

// Result is the simulated outcome for one (codec, core count) point.
type Result struct {
	Cores       int
	TotalGB     float64 // original data volume
	DumpSecs    float64 // compress + write
	LoadSecs    float64 // read + decompress
	DumpGBps    float64 // original bytes per second of wall time
	LoadGBps    float64
	StoredGB    float64 // bytes that hit the filesystem
	WriteShare  float64 // fraction of dump time spent writing
	ReadShare   float64 // fraction of load time spent reading
	Compression float64 // the profile's ratio, for reporting
}

// Simulate models dumping and loading bytesPerCore bytes per core across
// the given core count with the codec profile.
func Simulate(m Machine, p CodecProfile, cores int, bytesPerCore float64) (Result, error) {
	if cores <= 0 || bytesPerCore <= 0 {
		return Result{}, errors.New("parallelio: cores and bytesPerCore must be positive")
	}
	if p.Ratio <= 0 || p.CompressMBps <= 0 || p.DecompressMBps <= 0 {
		return Result{}, errors.New("parallelio: profile must have positive speed and ratio")
	}
	const mb = 1e6
	const gb = 1e9
	total := bytesPerCore * float64(cores)
	stored := total / p.Ratio

	// Compute happens perfectly in parallel across cores.
	compressSecs := bytesPerCore / (p.CompressMBps * mb)
	decompressSecs := bytesPerCore / (p.DecompressMBps * mb)

	writeBW := min(float64(cores)*m.PerCoreWriteMBps*mb, m.PeakWriteGBps*gb)
	readBW := min(float64(cores)*m.PerCoreReadMBps*mb, m.PeakReadGBps*gb)
	writeSecs := stored / writeBW
	readSecs := stored / readBW

	dump := compressSecs + writeSecs
	load := readSecs + decompressSecs
	return Result{
		Cores:       cores,
		TotalGB:     total / gb,
		DumpSecs:    dump,
		LoadSecs:    load,
		DumpGBps:    total / gb / dump,
		LoadGBps:    total / gb / load,
		StoredGB:    stored / gb,
		WriteShare:  writeSecs / dump,
		ReadShare:   readSecs / load,
		Compression: p.Ratio,
	}, nil
}

// RawProfile models writing uncompressed data (infinite codec speed,
// ratio 1); useful as the no-compression reference line.
func RawProfile() CodecProfile {
	return CodecProfile{Name: "raw", CompressMBps: 1e9, DecompressMBps: 1e9, Ratio: 1}
}

// ProfileCodec measures a codec's sequential compression/decompression
// speed and ratio on the given field under opts, through the unified
// registry-backed qoz.Codec interface. The returned speeds are in MB/s of
// original data. The context is observed at codec call boundaries.
func ProfileCodec(ctx context.Context, c qoz.Codec, data []float32, dims []int, opts qoz.Options) (CodecProfile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	origBytes := float64(len(data) * 4)

	start := time.Now()
	buf, err := c.Compress(ctx, data, dims, opts)
	if err != nil {
		return CodecProfile{}, err
	}
	compSecs := time.Since(start).Seconds()

	start = time.Now()
	if _, _, err := c.Decompress(ctx, buf); err != nil {
		return CodecProfile{}, err
	}
	decSecs := time.Since(start).Seconds()

	if compSecs <= 0 {
		compSecs = 1e-9
	}
	if decSecs <= 0 {
		decSecs = 1e-9
	}
	return CodecProfile{
		Name:           c.Name(),
		CompressMBps:   origBytes / 1e6 / compSecs,
		DecompressMBps: origBytes / 1e6 / decSecs,
		Ratio:          metrics.CompressionRatio(len(data), len(buf)),
	}, nil
}
