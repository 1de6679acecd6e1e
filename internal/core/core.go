// Package core implements QoZ, the paper's primary contribution: a dynamic,
// quality-metric-oriented, error-bounded lossy compressor built on a
// highly parameterized multi-level interpolation predictor.
//
// On top of the SZ3-style pipeline (interpolation prediction → linear-scale
// quantization → Huffman + dictionary coding) QoZ adds, per paper §V–VI:
//
//  1. grid-wise anchor points stored losslessly, bounding interpolation range;
//  2. level-adapted selection of the best-fit interpolator per level
//     (Algorithm 1), driven by uniform block sampling;
//  3. level-wise error bounds e_l = e / min(α^(l-1), β);
//  4. online auto-tuning of (α, β) for a user-chosen quality metric
//     (compression ratio, PSNR, SSIM, or error autocorrelation) using the
//     trial-compression comparison procedure of Table I.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"qoz/internal/container"
	"qoz/internal/grid"
	"qoz/internal/interp"
	"qoz/internal/pool"
	"qoz/internal/szstream"
)

// Mode selects the quality metric the online tuner optimizes (Fig. 1:
// the "user-customized inclination").
type Mode uint8

const (
	// ModeCR minimizes bit-rate (maximum compression ratio) — the mode
	// used for Table III.
	ModeCR Mode = iota
	// ModePSNR optimizes rate–PSNR (Fig. 8).
	ModePSNR
	// ModeSSIM optimizes rate–SSIM (Fig. 9).
	ModeSSIM
	// ModeAC optimizes rate–autocorrelation of errors (Fig. 10).
	ModeAC
	// ModeFixed disables tuning and uses the Options' Alpha/Beta directly
	// (used by the Fig. 13 fixed-parameter curves).
	ModeFixed
)

func (m Mode) String() string {
	switch m {
	case ModeCR:
		return "cr"
	case ModePSNR:
		return "psnr"
	case ModeSSIM:
		return "ssim"
	case ModeAC:
		return "ac"
	case ModeFixed:
		return "fixed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Options parameterizes QoZ compression. The zero value plus a positive
// ErrorBound is valid: defaults follow the paper's experimental
// configuration (§VII-A4).
type Options struct {
	// ErrorBound is the absolute error bound e (required, > 0).
	ErrorBound float64
	// Mode selects the tuning target; default ModeCR.
	Mode Mode
	// Alpha and Beta are used when Mode == ModeFixed.
	Alpha, Beta float64

	// AnchorStride is the anchor-grid spacing (power of two). Default: 64
	// for 2D data, 32 for 3D.
	AnchorStride int
	// SampleBlock is the sampling block edge. Default (0 or negative): 64
	// for 2D, 16 for 3D.
	SampleBlock int
	// SampleRate is the fraction of points sampled for online tuning.
	// Default: 1% for 2D, 0.5% for 3D.
	SampleRate float64

	// Ablation switches (Fig. 12). All default to false = full QoZ.
	DisableAnchors     bool // "AP" off: SZ3-style global traversal
	DisableSampling    bool // "S" off: center-block selection like SZ3
	DisableLevelSelect bool // "LIS" off: one interpolator for all levels
	DisableParamTuning bool // "PA" off: α=1, β=1 (uniform level bounds)

	// Workers bounds the goroutines this one compression may run its
	// tuner trials, level sweeps and entropy stage on, the caller's among
	// them; 0 or 1 runs everything on the caller. No byte of the output
	// and no tuning decision depends on it.
	Workers int
}

// withDefaults fills unset options following the paper's configuration.
func (o Options) withDefaults(nd int) Options {
	if o.AnchorStride == 0 {
		if nd >= 3 {
			o.AnchorStride = 32
		} else {
			o.AnchorStride = 64
		}
	}
	o.AnchorStride = floorPow2(o.AnchorStride)
	if o.AnchorStride < 4 {
		o.AnchorStride = 4
	}
	if o.SampleBlock <= 0 {
		if nd >= 3 {
			o.SampleBlock = 16
		} else {
			o.SampleBlock = 64
		}
	}
	if o.SampleRate == 0 {
		if nd >= 3 {
			o.SampleRate = 0.005
		} else {
			o.SampleRate = 0.01
		}
	}
	if o.Mode == ModeFixed {
		if o.Alpha < 1 {
			o.Alpha = 1
		}
		if o.Beta < 1 {
			o.Beta = 1
		}
	}
	if o.DisableParamTuning && o.Mode != ModeFixed {
		o.Mode = ModeFixed
		o.Alpha, o.Beta = 1, 1
	}
	return o
}

// pyramid returns the predictor for a field of shape dims under defaulted
// options, short of what the tuner chooses: the methods and (α, β).
func (o Options) pyramid(dims []int) *interp.Pyramid {
	p := &interp.Pyramid{Dims: dims, Anchor: o.AnchorStride, EB: o.ErrorBound}
	if o.DisableAnchors {
		p.Anchor = 0
	}
	return p
}

// Result carries the tuning decisions made during compression, for
// observability and the ablation/tuning experiments.
type Result struct {
	Bytes   []byte
	Alpha   float64
	Beta    float64
	Methods []interp.Method // index l-1 = method for level l
	Tuner   TunerStats      // what choosing them cost
}

// Compress compresses data (row-major, shape dims) under opts and returns
// the encoded stream.
func Compress(data []float32, dims []int, opts Options) ([]byte, error) {
	r, err := CompressDetailed(data, dims, opts)
	if err != nil {
		return nil, err
	}
	return r.Bytes, nil
}

// CompressDetailed is Compress plus the tuning decisions.
func CompressDetailed(data []float32, dims []int, opts Options) (*Result, error) {
	if err := validate(data, dims, opts.ErrorBound); err != nil {
		return nil, err
	}
	o := opts.withDefaults(len(dims))
	p := o.pyramid(dims)
	p.Workers = o.Workers
	tn := newTuner(data, dims, o)
	p.Methods = tn.selectMethods(p.Top())
	p.Alpha, p.Beta = o.Alpha, o.Beta
	if o.Mode != ModeFixed {
		p.Alpha, p.Beta = tn.tuneParams()
	}

	// The full pass with the chosen configuration, its symbols cut per
	// stage so the container stores each level as its own segment and a
	// progressive decoder can stop after any of them.
	enc := p.Encode(data)
	payload := &szstream.Payload{
		Anchors:  enc.Anchors,
		Config:   encodeConfig(p, o.AnchorStride),
		Segments: enc.Segments,
	}
	buf, err := szstream.EncodeLevels(codecID, dims, o.ErrorBound, payload, o.Workers)
	if err != nil {
		return nil, err
	}
	return &Result{Bytes: buf, Alpha: p.Alpha, Beta: p.Beta, Methods: p.Methods, Tuner: tn.stats}, nil
}

// Decompress reverses Compress. Both stream layouts decode: the
// level-segmented layout the encoder now produces, and the legacy
// single-segment layout of older streams, bit-identically to the original
// decoder. A non-nil box (one range per dimension) is the only part the
// caller reads: it comes out exact and the rest is left unset
// (interp.Pyramid.Decode).
func Decompress(buf []byte, box ...interp.Range) ([]float32, []int, error) {
	return decompress(buf, box, interp.LevelPassDecodeClip)
}

// decompress decodes a stream of either layout with the given sweep.
// Production passes interp.LevelPassDecodeClip; the differential oracle
// (reference.go) passes the closure-driven interp.LevelPass, so both decode
// through the same validation and differ in nothing but the sweep.
func decompress(buf []byte, box []interp.Range, sweep interp.DecodeSweep) ([]float32, []int, error) {
	s, err := container.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	if s.Codec != codecID {
		s.Release()
		return nil, nil, container.ErrCodecMismatch
	}
	recon, dims, _, err := decompressStream(s, 1, box, sweep)
	return recon, dims, err
}

// DecompressLevel decodes a level-segmented stream — or any byte-exact
// prefix of one ending at a level boundary — down to the requested
// interpolation level, and returns the compacted coarse grid: the points
// whose coordinates are all multiples of the returned stride, in
// row-major order over interp.CoarseDims(dims, stride). level is clamped
// to [1, maxLevel+1]; level maxLevel+1 materializes the seed stage alone
// (the anchor grid), level 1 the full field. Legacy single-segment
// streams are rejected — they hold no level boundaries to stop at.
func DecompressLevel(buf []byte, level int) (coarse []float32, dims []int, stride int, err error) {
	s, err := container.DecodePrefix(buf)
	if err != nil {
		return nil, nil, 0, err
	}
	if s.Codec != codecID {
		s.Release()
		return nil, nil, 0, container.ErrCodecMismatch
	}
	if !szstream.IsLevelStream(s) {
		s.Release()
		return nil, nil, 0, errors.New("qoz: stream predates level segmentation")
	}
	recon, dims, stride, err := decompressStream(s, level, nil, interp.LevelPassDecodeClip)
	if err != nil {
		return nil, nil, 0, err
	}
	if stride == 1 {
		return recon, dims, 1, nil
	}
	return compactCoarse(recon, dims, stride), dims, stride, nil
}

// decompressStream reconstructs a stream of either layout through the
// requested level (clamped to [1, maxLevel+1]; a single-run stream, which
// DecompressLevel refuses, is only asked for level 1) and returns the full-size reconstruction buffer — only
// positions on the returned stride's grid are meaningful when stride > 1 —
// plus the dims and completed stride. Levels below the requested one are
// not looked at, so a prefix decodes as far as it is sound. A non-nil box
// limits what comes out exact (interp.Pyramid.Decode). It releases s: the
// payload's config and literals view its sections until the sweep is done.
func decompressStream(s *container.Stream, level int, box []interp.Range, sweep interp.DecodeSweep) ([]float32, []int, int, error) {
	defer s.Release()
	payload, err := szstream.DecodeStream(s)
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := decodeConfig(payload.Config, s.Dims, s.ErrorBound)
	if err != nil {
		return nil, nil, 0, err
	}
	top := p.Top()
	if len(p.Methods) < top {
		return nil, nil, 0, errors.New("qoz: config misses per-level methods")
	}
	level = max(1, min(level, top+1))
	recon, err := p.Decode(payload.Anchors, payload.Segments, level, box, sweep)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("qoz: %w", err)
	}
	// The symbol buffers are dead once the sweeps finish; recycle them so
	// steady-state brick serving reuses the same scratch.
	for _, seg := range payload.Segments {
		pool.PutSlab(seg.Bins)
	}
	return recon, s.Dims, 1 << (level - 1), nil
}

// compactCoarse gathers the stride-aligned points of a full-size
// reconstruction buffer into a dense row-major array over
// interp.CoarseDims(dims, stride), a pool.Slab, and hands recon back to
// the pool.
func compactCoarse(recon []float32, dims []int, stride int) []float32 {
	defer pool.PutSlab(recon)
	nd := len(dims)
	var zero grid.Coord
	g, _ := grid.LevelOf(zero[:nd], dims, stride)
	out := pool.Slab[float32](g.N)
	w := grid.Walk(g.Dims[:nd], dims, zero[:nd], stride, g.Dims[:nd], zero[:nd])
	for w.Next() {
		for j := range w.Run {
			out[w.B+j] = recon[w.A+j*stride]
		}
	}
	return out
}

const codecID = 1 // container.CodecQoZ

// methodFor returns the interpolator for a level, reusing the highest
// configured level for anything above (Algorithm 1's tall-grid rule).
func methodFor(methods []interp.Method, level int) interp.Method {
	if level-1 < len(methods) {
		return methods[level-1]
	}
	return methods[len(methods)-1]
}

// validate checks Compress's input; QoZ's predictor and tuner cover 1 to
// 4 dimensions.
func validate(data []float32, dims []int, eb float64) error {
	if len(dims) > 4 {
		return errors.New("qoz: 1 to 4 dimensions supported")
	}
	if err := container.CheckField(dims, len(data), eb); err != nil {
		return fmt.Errorf("qoz: %w", err)
	}
	return nil
}

func floorPow2(v int) int {
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

// ---- config section serialization ----

// encodeConfig serializes the tuned pyramid: an anchor-free flag, α, β,
// the anchor stride (stored even when anchors are off) and the per-level
// methods.
func encodeConfig(p *interp.Pyramid, anchorStride int) []byte {
	out := make([]byte, 0, 32+2*len(p.Methods))
	flags := byte(0)
	if p.Anchor == 0 {
		flags |= 1
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Alpha))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Beta))
	out = binary.AppendUvarint(out, uint64(anchorStride))
	out = binary.AppendUvarint(out, uint64(len(p.Methods)))
	for _, m := range p.Methods {
		out = append(out, byte(m.Kind), byte(m.Order))
	}
	return out
}

// decodeConfig rebuilds the pyramid of a stream of shape dims and error
// bound eb from its config section.
func decodeConfig(buf []byte, dims []int, eb float64) (*interp.Pyramid, error) {
	if len(buf) < 1+16 {
		return nil, errors.New("qoz: truncated config")
	}
	noAnchors := buf[0]&1 != 0
	p := &interp.Pyramid{
		Dims:  dims,
		EB:    eb,
		Alpha: math.Float64frombits(binary.LittleEndian.Uint64(buf[1:])),
		Beta:  math.Float64frombits(binary.LittleEndian.Uint64(buf[9:])),
	}
	buf = buf[17:]
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errors.New("qoz: truncated config")
	}
	stride := int(v)
	buf = buf[n:]
	cnt, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf[n:])) < 2*cnt || cnt == 0 || cnt > 64 {
		return nil, errors.New("qoz: malformed method list")
	}
	buf = buf[n:]
	p.Methods = make([]interp.Method, cnt)
	for i := range p.Methods {
		p.Methods[i] = interp.Method{
			Kind:  interp.Kind(buf[2*i]),
			Order: interp.Order(buf[2*i+1]),
		}
		if p.Methods[i].Kind > interp.Quadratic || p.Methods[i].Order > interp.Decreasing {
			return nil, errors.New("qoz: invalid method")
		}
	}
	if p.Alpha < 1 || p.Beta < 1 || math.IsNaN(p.Alpha) || math.IsNaN(p.Beta) {
		return nil, errors.New("qoz: invalid tuning parameters")
	}
	if !noAnchors {
		if stride < 2 || stride&(stride-1) != 0 {
			return nil, errors.New("qoz: invalid anchor stride")
		}
		p.Anchor = stride
	}
	return p, nil
}
