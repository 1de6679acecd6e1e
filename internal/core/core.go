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
	"qoz/internal/interp"
	"qoz/internal/pool"
	"qoz/internal/quant"
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
	// SampleBlock is the sampling block edge. Default: 64 for 2D, 16 for 3D.
	SampleBlock int
	// SampleRate is the fraction of points sampled for online tuning.
	// Default: 1% for 2D, 0.5% for 3D.
	SampleRate float64

	// Ablation switches (Fig. 12). All default to false = full QoZ.
	DisableAnchors     bool // "AP" off: SZ3-style global traversal
	DisableSampling    bool // "S" off: center-block selection like SZ3
	DisableLevelSelect bool // "LIS" off: one interpolator for all levels
	DisableParamTuning bool // "PA" off: α=1, β=1 (uniform level bounds)
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
	if o.SampleBlock == 0 {
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

// maxLevel returns the top interpolation level of a field of shape dims
// under defaulted options: set by the anchor grid, or by the longest
// dimension when there are no anchors.
func (o Options) maxLevel(dims []int) int {
	if o.DisableAnchors {
		return interp.MaxLevelGlobal(dims)
	}
	return interp.MaxLevelAnchored(o.AnchorStride)
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
	eb := o.ErrorBound

	maxLevel := o.maxLevel(dims)

	tn := newTuner(data, dims, o)
	methods := tn.selectMethods(maxLevel)
	alpha, beta := o.Alpha, o.Beta
	if o.Mode != ModeFixed {
		alpha, beta = tn.tuneParams()
	}

	// Full compression pass with the chosen configuration. The symbol
	// streams are cut at level boundaries as they are produced — the pass
	// already emits them in level order (seed stage, then levels max..1) —
	// so the container can store each level as its own segment and a
	// progressive decoder can stop after any level. Both field-sized
	// buffers are sized once from the known point counts. They are not
	// pooled: a sync.Pool keeps up to one set per P alive across GC
	// cycles, which on whole-field encodes raised the collector's heap
	// target (and peak RSS by a third) for a few percent of throughput.
	q := quant.New(eb, 0)
	recon := make([]float32, len(data))
	var anchors []float32
	nBins := len(data)
	if !o.DisableAnchors {
		idxs := interp.AnchorIndices(dims, o.AnchorStride)
		anchors = make([]float32, len(idxs))
		for i, idx := range idxs {
			anchors[i] = data[idx]
			recon[idx] = data[idx]
		}
		nBins -= len(idxs)
	}
	q.Bins = make([]uint32, 0, nBins)
	if o.DisableAnchors {
		recon[0] = q.Quantize(data[0], 0)
	}
	// Segment boundaries are recorded as stream offsets and cut once the
	// pass is over, when the streams can no longer move.
	type mark struct{ bins, lits int }
	marks := make([]mark, 0, maxLevel+2)
	marks = append(marks, mark{}, mark{len(q.Bins), len(q.Literals)})
	for level := maxLevel; level >= 1; level-- {
		q.SetBound(levelBound(eb, alpha, beta, level))
		interp.LevelPassEncode(recon, data, dims, level, methodFor(methods, level), q)
		marks = append(marks, mark{len(q.Bins), len(q.Literals)})
	}
	segs := make([]szstream.LevelSegment, maxLevel+1)
	for i := range segs {
		from, to := marks[i], marks[i+1]
		segs[i] = szstream.LevelSegment{
			Level:    maxLevel + 1 - i,
			Bins:     q.Bins[from.bins:to.bins],
			Literals: q.Literals[from.lits:to.lits],
		}
	}

	cfg := encodeConfig(o, alpha, beta, methods)
	payload := &szstream.LevelPayload{
		Anchors:  anchors,
		Config:   cfg,
		Segments: segs,
	}
	buf, err := szstream.EncodeLevels(codecID, dims, eb, payload)
	if err != nil {
		return nil, err
	}
	return &Result{Bytes: buf, Alpha: alpha, Beta: beta, Methods: methods, Tuner: tn.stats}, nil
}

// Decompress reverses Compress. Both stream layouts decode: the
// level-segmented layout the encoder now produces, and the legacy
// single-segment layout of older streams, bit-identically to the original
// decoder.
func Decompress(buf []byte) ([]float32, []int, error) {
	return decompress(buf, interp.LevelPassDecode)
}

// levelSweep reconstructs one level of buf from deq's symbols. Production
// passes interp.LevelPassDecode; the differential oracle (reference.go)
// passes the closure-driven interp.LevelPass, so both decode through the
// same validation and differ in nothing but the sweep.
type levelSweep func(buf []float32, dims []int, level int, m interp.Method, deq *quant.Dequantizer)

// decompress decodes a whole stream of either layout with the given sweep.
func decompress(buf []byte, sweep levelSweep) ([]float32, []int, error) {
	s, err := container.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	if s.Codec != codecID {
		return nil, nil, container.ErrCodecMismatch
	}
	if szstream.IsLevelStream(s) {
		recon, dims, _, err := decompressStream(s, 1, sweep)
		return recon, dims, err
	}
	return decompressLegacy(s, sweep)
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
		return nil, nil, 0, container.ErrCodecMismatch
	}
	if !szstream.IsLevelStream(s) {
		return nil, nil, 0, errors.New("qoz: stream predates level segmentation")
	}
	recon, dims, stride, err := decompressStream(s, level, interp.LevelPassDecode)
	if err != nil {
		return nil, nil, 0, err
	}
	if stride == 1 {
		return recon, dims, 1, nil
	}
	return compactCoarse(recon, dims, stride), dims, stride, nil
}

// decompressStream reconstructs a level-segmented stream through the
// requested level (clamped to [1, maxLevel+1]) and returns the full-size
// reconstruction buffer — only positions on the returned stride's grid
// are meaningful when stride > 1 — plus the dims and completed stride.
// Each level it sweeps must consume its segment's literals exactly; levels
// below the requested one are not looked at, so a prefix decodes as far as
// it is sound.
func decompressStream(s *container.Stream, level int, sweep levelSweep) ([]float32, []int, int, error) {
	payload, err := szstream.DecodeLevelsStream(s)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg, err := decodeConfig(payload.Config)
	if err != nil {
		return nil, nil, 0, err
	}
	dims := s.Dims
	eb := s.ErrorBound
	n := 1
	for _, d := range dims {
		n *= d
	}

	maxLevel := interp.MaxLevelAnchored(cfg.anchorStride)
	if cfg.noAnchors {
		maxLevel = interp.MaxLevelGlobal(dims)
	}
	if len(cfg.methods) < maxLevel {
		return nil, nil, 0, errors.New("qoz: config misses per-level methods")
	}
	effL := level
	if effL < 1 {
		effL = 1
	}
	if effL > maxLevel+1 {
		effL = maxLevel + 1
	}

	recon := make([]float32, n)
	seed := payload.Segment(maxLevel + 1)
	if seed == nil {
		return nil, nil, 0, errors.New("qoz: missing seed segment")
	}
	if cfg.noAnchors {
		if len(seed.Bins) != 1 {
			return nil, nil, 0, errors.New("qoz: bin count does not match dims")
		}
		deq := quant.NewDequantizer(eb, 0, seed.Bins, seed.Literals)
		recon[0] = deq.Next(0)
		if err := deq.CheckLiterals(); err != nil {
			return nil, nil, 0, fmt.Errorf("qoz: seed stage: %w", err)
		}
	} else {
		idxs := interp.AnchorIndices(dims, cfg.anchorStride)
		if len(payload.Anchors) != len(idxs) {
			return nil, nil, 0, errors.New("qoz: anchor count mismatch")
		}
		if len(seed.Bins) != 0 {
			return nil, nil, 0, errors.New("qoz: unexpected seed-stage bins")
		}
		for i, idx := range idxs {
			recon[idx] = payload.Anchors[i]
		}
	}
	for l := maxLevel; l >= effL; l-- {
		seg := payload.Segment(l)
		if seg == nil {
			return nil, nil, 0, fmt.Errorf("qoz: stream prefix ends above level %d", l)
		}
		if len(seg.Bins) != interp.CountLevelPoints(dims, l) {
			return nil, nil, 0, errors.New("qoz: bin count does not match dims")
		}
		deq := quant.NewDequantizer(levelBound(eb, cfg.alpha, cfg.beta, l), 0, seg.Bins, seg.Literals)
		sweep(recon, dims, l, methodFor(cfg.methods, l), deq)
		if err := deq.CheckLiterals(); err != nil {
			return nil, nil, 0, fmt.Errorf("qoz: level %d: %w", l, err)
		}
	}
	// The per-level symbol buffers are dead once the sweeps finish; recycle
	// them so steady-state brick serving reuses the same scratch.
	for i := range payload.Segments {
		pool.PutUint32s(payload.Segments[i].Bins)
	}
	return recon, dims, 1 << (effL - 1), nil
}

// compactCoarse gathers the stride-aligned points of a full-size
// reconstruction buffer into a dense row-major array over
// interp.CoarseDims(dims, stride).
func compactCoarse(recon []float32, dims []int, stride int) []float32 {
	cd := interp.CoarseDims(dims, stride)
	nd := len(dims)
	strides := make([]int, nd)
	s := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	n := 1
	for _, d := range cd {
		n *= d
	}
	out := make([]float32, n)
	coord := make([]int, nd)
	for i := 0; i < n; i++ {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += coord[d] * stride * strides[d]
		}
		out[i] = recon[idx]
		d := nd - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < cd[d] {
				break
			}
			coord[d] = 0
			d--
		}
	}
	return out
}

// decompressLegacy decodes the pre-segmentation single-segment layout,
// byte-for-byte as the original decoder did.
func decompressLegacy(s *container.Stream, sweep levelSweep) ([]float32, []int, error) {
	payload, err := szstream.PayloadFrom(s)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := decodeConfig(payload.Config)
	if err != nil {
		return nil, nil, err
	}
	dims := s.Dims
	eb := s.ErrorBound
	n := 1
	for _, d := range dims {
		n *= d
	}

	maxLevel := interp.MaxLevelAnchored(cfg.anchorStride)
	if cfg.noAnchors {
		maxLevel = interp.MaxLevelGlobal(dims)
	}
	if len(cfg.methods) < maxLevel {
		return nil, nil, errors.New("qoz: config misses per-level methods")
	}

	recon := make([]float32, n)
	deq := quant.NewDequantizer(eb, 0, payload.Bins, payload.Literals)
	if cfg.noAnchors {
		if len(payload.Bins) != n {
			return nil, nil, errors.New("qoz: bin count does not match dims")
		}
		recon[0] = deq.Next(0)
	} else {
		idxs := interp.AnchorIndices(dims, cfg.anchorStride)
		if len(payload.Anchors) != len(idxs) {
			return nil, nil, errors.New("qoz: anchor count mismatch")
		}
		if len(payload.Bins) != n-len(idxs) {
			return nil, nil, errors.New("qoz: bin count does not match dims")
		}
		for i, idx := range idxs {
			recon[idx] = payload.Anchors[i]
		}
	}
	for level := maxLevel; level >= 1; level-- {
		deq.SetBound(levelBound(eb, cfg.alpha, cfg.beta, level))
		sweep(recon, dims, level, methodFor(cfg.methods, level), deq)
	}
	if deq.Remaining() != 0 {
		return nil, nil, errors.New("qoz: trailing quantization symbols")
	}
	if err := deq.CheckLiterals(); err != nil {
		return nil, nil, fmt.Errorf("qoz: %w", err)
	}
	pool.PutUint32s(payload.Bins)
	return recon, dims, nil
}

const codecID = 1 // container.CodecQoZ

// levelBound computes e_l = e / min(α^(l-1), β) (paper Eq. 5). Level 1
// always gets the full bound e.
func levelBound(eb, alpha, beta float64, level int) float64 {
	div := math.Pow(alpha, float64(level-1))
	if div > beta {
		div = beta
	}
	if div < 1 {
		div = 1
	}
	return eb / div
}

// methodFor returns the interpolator for a level, reusing the highest
// configured level for anything above (Algorithm 1's tall-grid rule).
func methodFor(methods []interp.Method, level int) interp.Method {
	if level-1 < len(methods) {
		return methods[level-1]
	}
	return methods[len(methods)-1]
}

func validate(data []float32, dims []int, eb float64) error {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return errors.New("qoz: error bound must be positive and finite")
	}
	if len(dims) == 0 || len(dims) > 4 {
		return errors.New("qoz: 1 to 4 dimensions supported")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return errors.New("qoz: non-positive dimension")
		}
		n *= d
	}
	if n != len(data) {
		return errors.New("qoz: dims do not match data length")
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

type config struct {
	alpha, beta  float64
	anchorStride int
	noAnchors    bool
	methods      []interp.Method
}

func encodeConfig(o Options, alpha, beta float64, methods []interp.Method) []byte {
	out := make([]byte, 0, 32+2*len(methods))
	flags := byte(0)
	if o.DisableAnchors {
		flags |= 1
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(alpha))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(beta))
	out = binary.AppendUvarint(out, uint64(o.AnchorStride))
	out = binary.AppendUvarint(out, uint64(len(methods)))
	for _, m := range methods {
		out = append(out, byte(m.Kind), byte(m.Order))
	}
	return out
}

func decodeConfig(buf []byte) (*config, error) {
	if len(buf) < 1+16 {
		return nil, errors.New("qoz: truncated config")
	}
	c := &config{}
	c.noAnchors = buf[0]&1 != 0
	buf = buf[1:]
	c.alpha = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	c.beta = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	buf = buf[16:]
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errors.New("qoz: truncated config")
	}
	c.anchorStride = int(v)
	buf = buf[n:]
	cnt, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf[n:])) < 2*cnt || cnt == 0 || cnt > 64 {
		return nil, errors.New("qoz: malformed method list")
	}
	buf = buf[n:]
	c.methods = make([]interp.Method, cnt)
	for i := range c.methods {
		c.methods[i] = interp.Method{
			Kind:  interp.Kind(buf[2*i]),
			Order: interp.Order(buf[2*i+1]),
		}
		if c.methods[i].Kind > interp.Quadratic || c.methods[i].Order > interp.Decreasing {
			return nil, errors.New("qoz: invalid method")
		}
	}
	if c.alpha < 1 || c.beta < 1 || math.IsNaN(c.alpha) || math.IsNaN(c.beta) {
		return nil, errors.New("qoz: invalid tuning parameters")
	}
	if !c.noAnchors && (c.anchorStride < 2 || c.anchorStride&(c.anchorStride-1) != 0) {
		return nil, errors.New("qoz: invalid anchor stride")
	}
	return c, nil
}
