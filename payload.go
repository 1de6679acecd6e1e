package qoz

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"qoz/internal/container"
	"qoz/internal/core"
	"qoz/internal/interp"
	"qoz/internal/pool"
)

// Payloads. A payload is one codec unit of one sample kind — one slab of a
// slab stream, one brick of a brick store, or a whole legacy field. The
// core pipelines quantize float32 samples (the format of the paper's
// datasets), so a float32 payload is the codec's own container stream. A
// float64 payload is a precision-managed envelope around one, shared by
// every codec in the registry: each value's float32 head is compressed
// under a tightened bound, and the rare points whose float32 conversion
// error alone approaches the bound — plus every non-finite point, which the
// quantized path cannot carry — are escaped and stored as exact float64
// literals. The guarantee |v − v′| ≤ e therefore holds for every finite
// point, and NaN/±Inf round-trip exactly.
//
// The sample kind is decided once, here: EncodePayload picks the form from
// its type parameter, and DecodePayload, PeekPayload and DecodePayloadLevel
// recognize it from the payload's magic. Samples only ever widen on the way
// out — a float32 payload decodes into []float64 exactly, a float64 payload
// into []float32 is refused with ErrNarrowing.

const f64Magic = "QZD1"

// ErrNarrowing reports a request to read double-precision data as float32
// (or to write float64 samples into a float32 archive): the narrowing could
// break the error bound, so it is refused rather than performed.
var ErrNarrowing = errors.New("qoz: float64 data cannot be narrowed to float32 without breaking the error bound; use float64 samples")

// IsFloat64Stream reports whether buf is a float64 payload (the escape
// envelope), as opposed to a bare container or a slab stream.
func IsFloat64Stream(buf []byte) bool {
	return len(buf) >= len(f64Magic) && string(buf[:len(f64Magic)]) == f64Magic
}

// envelope is the parsed prefix of a float64 payload: magic | eb |
// nEscapes | delta-varint indices | exact f64 values | inner container.
type envelope struct {
	codecID uint8    // of the inner container
	dims    []int    // declared by the inner container
	escIdx  []uint64 // strictly increasing flat indices, all inside dims
	escVal  []float64
	inner   []byte
}

// parseEnvelope is the only reader of the envelope prefix; full decodes,
// level decodes and header peeks all see exactly its checks. Nothing is
// allocated from a declared count before the payload is known to be able
// to hold it, and the inner container is only peeked, never decoded.
func parseEnvelope(buf []byte) (envelope, error) {
	var env envelope
	if len(buf) < len(f64Magic)+8 || !IsFloat64Stream(buf) {
		return env, errors.New("qoz: not a float64 stream")
	}
	buf = buf[len(f64Magic)+8:] // the bound is informational
	nEsc, n := binary.Uvarint(buf)
	if n <= 0 {
		return env, errors.New("qoz: corrupt float64 envelope")
	}
	buf = buf[n:]
	// Each escape occupies at least one index byte and exactly eight value
	// bytes.
	if nEsc > uint64(len(buf))/9 {
		return env, fmt.Errorf("qoz: escape count %d exceeds payload size %d", nEsc, len(buf))
	}
	env.escIdx = make([]uint64, nEsc)
	prev := uint64(0)
	for i := range env.escIdx {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return env, errors.New("qoz: corrupt escape index")
		}
		if i > 0 && d == 0 {
			return env, errors.New("qoz: non-increasing escape index")
		}
		if prev+d < prev {
			return env, errors.New("qoz: escape index overflow")
		}
		buf = buf[n:]
		prev += d
		env.escIdx[i] = prev
	}
	if uint64(len(buf)) < 8*nEsc {
		return env, errors.New("qoz: truncated escape values")
	}
	env.escVal = make([]float64, nEsc)
	for i := range env.escVal {
		env.escVal[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	env.inner = buf[8*nEsc:]
	var err error
	if env.codecID, env.dims, err = container.PeekHeader(env.inner); err != nil {
		return env, err
	}
	points, _ := container.CheckDims(env.dims) // PeekHeader validated them
	if nEsc > 0 && prev >= uint64(points) {
		return env, fmt.Errorf("qoz: escape index %d out of range", prev)
	}
	return env, nil
}

// overlay writes the escaped values that land on the stride-aligned coarse
// grid of dims into out (row-major over CoarseDims(dims, stride)); stride 1
// is the full field. Escape indices are flat full-grid indices; points off
// the grid were not materialized.
func (env *envelope) overlay(out []float64, dims []int, stride int) error {
	cd := interp.CoarseDims(dims, stride)
	for i, idx := range env.escIdx {
		// Decompose from the fastest dimension up, accumulating the coarse
		// index as we go.
		ci, cs, rem, on := 0, 1, idx, true
		for d := len(dims) - 1; d >= 0; d-- {
			c := int(rem % uint64(dims[d]))
			rem /= uint64(dims[d])
			if c%stride != 0 {
				on = false
				break
			}
			ci += c / stride * cs
			cs *= cd[d]
		}
		if !on {
			continue
		}
		if rem != 0 || ci >= len(out) {
			return fmt.Errorf("qoz: escape index %d out of range", idx)
		}
		out[ci] = env.escVal[i]
	}
	return nil
}

// PeekPayload parses a payload just far enough to report its sample kind
// and the container's codec id and declared dimensions, without decoding
// anything — letting a reader validate a declared shape before the codec
// allocates from it.
func PeekPayload(buf []byte) (float64s bool, codecID uint8, dims []int, err error) {
	if IsFloat64Stream(buf) {
		env, err := parseEnvelope(buf)
		return true, env.codecID, env.dims, err
	}
	codecID, dims, err = container.PeekHeader(buf)
	return false, codecID, dims, err
}

// EncodePayload compresses one field of either sample kind through codec c
// (nil selects the registry default) into its bare payload form, as
// opposed to Encode, which frames payloads in the slab stream format. For
// float64 samples the effective absolute bound must exceed the field's
// float32 conversion error scale for the head compression to engage;
// points where it does not are stored exactly, so correctness never
// depends on the bound.
func EncodePayload[T Float](ctx context.Context, c Codec, data []T, dims []int, opts Options) ([]byte, error) {
	if c == nil {
		var err error
		if c, err = Lookup(DefaultCodec); err != nil {
			return nil, err
		}
	}
	if elemSize[T]() == 4 {
		return c.Compress(ctx, convertSamples[T, float32](data), dims, opts)
	}
	eb, err := absBound(opts, data)
	if err != nil {
		return nil, err
	}

	// Split into float32 heads and exact escapes. A point is escaped when
	// half the bound cannot absorb its conversion error, when its float32
	// head overflows to infinity, or when it is non-finite; non-finite
	// heads are replaced with 0 so they cannot poison the quantizer.
	heads := make([]float32, len(data))
	var escIdx []uint64
	var escVal []float64
	for i, x := range data {
		v := float64(x)
		h := float32(v)
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			escIdx = append(escIdx, uint64(i))
			escVal = append(escVal, v)
			heads[i] = 0
		case math.Abs(v-float64(h)) > eb/2 || math.IsInf(float64(h), 0):
			escIdx = append(escIdx, uint64(i))
			escVal = append(escVal, v)
			if math.IsInf(float64(h), 0) {
				heads[i] = 0
			} else {
				heads[i] = h // kept for smooth prediction
			}
		default:
			heads[i] = h
		}
	}

	headOpts := opts
	headOpts.ErrorBound, headOpts.RelBound = eb/2, 0
	inner, err := c.Compress(ctx, heads, dims, headOpts)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, len(inner)+len(escVal)*12+32)
	out = append(out, f64Magic...)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(eb))
	out = binary.AppendUvarint(out, uint64(len(escIdx)))
	prev := uint64(0)
	for _, idx := range escIdx {
		out = binary.AppendUvarint(out, idx-prev)
		prev = idx
	}
	for _, v := range escVal {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	out = append(out, inner...)
	return out, nil
}

// Range is the half-open range [Lo, Hi) of coordinates along one
// dimension. A decode box is one Range per dimension.
type Range = interp.Range

// DecodePayload reverses EncodePayload for a payload of either kind,
// routing the container to the registered codec named in its header and
// restoring escaped double-precision points exactly. A box, one Range per
// dimension inside the field, asks for its points only: the result still
// has the field's shape and its box holds a whole decode's values, bit for
// bit, while the points outside it are unspecified. A codec that predicts
// through the interpolation pyramid (qoz, sz3, mgard) then reconstructs
// just the points the box depends on; the others decode in full.
func DecodePayload[T Float](ctx context.Context, buf []byte, box ...Range) ([]T, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, dims, _, err := decodePayload[T](buf, func(inner []byte) ([]float32, []int, int, error) {
		heads, dims, err := decodeContainer(ctx, inner, box)
		return heads, dims, 1, err
	})
	return v, dims, err
}

// DecodePayloadLevel decodes a QoZ payload of either kind — or a byte-exact
// prefix of one ending at a level boundary, as range-fetched via
// LevelOffsets — down to the requested level. It returns the compacted
// coarse grid (row-major over CoarseDims(dims, stride)), the full field
// dims, and the stride of the materialized grid. level is clamped to the
// payload's own range; the values returned, escaped double-precision points
// included, are bit-identical to the same grid points of a full decode.
func DecodePayloadLevel[T Float](buf []byte, level int) (coarse []T, dims []int, stride int, err error) {
	return decodePayload[T](buf, func(inner []byte) ([]float32, []int, int, error) {
		return core.DecompressLevel(inner, level)
	})
}

// decodePayload is the one decode body: decodeInner reconstructs the
// container's float32 samples on the grid of the stride it returns, and
// the envelope's escapes, if buf has one, are overlaid on that grid.
func decodePayload[T Float](buf []byte, decodeInner func([]byte) ([]float32, []int, int, error)) ([]T, []int, int, error) {
	inner := buf
	var env envelope
	if IsFloat64Stream(buf) {
		if elemSize[T]() == 4 {
			return nil, nil, 0, ErrNarrowing
		}
		var err error
		if env, err = parseEnvelope(buf); err != nil {
			return nil, nil, 0, err
		}
		inner = env.inner
	}
	heads, dims, stride, err := decodeInner(inner)
	if err != nil {
		return nil, nil, 0, err
	}
	if elemSize[T]() == 4 {
		return convertSamples[float32, T](heads), dims, stride, nil
	}
	// Widen into a slab and hand the heads back: a brick decode then draws
	// both buffers from the pool and returns the narrow one at once.
	out := pool.Slab[float64](len(heads))
	for i, x := range heads {
		out[i] = float64(x)
	}
	pool.PutSlab(heads)
	if err := env.overlay(out, dims, stride); err != nil {
		pool.PutSlab(out)
		return nil, nil, 0, err
	}
	return convertSamples[float64, T](out), dims, stride, nil
}

// finiteRange returns max−min over the finite samples of a (0 when there
// are none): the value range relative bounds resolve against. Non-finite
// samples carry no range information — they are stored exactly (float64)
// or passed through as literals (float32) — so they are skipped.
func finiteRange[T Float](a []T) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range a {
		// NaN fails every comparison and ±Inf the MaxFloat64 ones, so only
		// finite samples move the range. (This pass runs over every field
		// encoded under a relative bound; keep it to plain comparisons.)
		v := float64(x)
		if v < lo && v >= -math.MaxFloat64 {
			lo = v
		}
		if v > hi && v <= math.MaxFloat64 {
			hi = v
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// elemSize returns the byte width of a sample type.
func elemSize[T Float]() uintptr {
	var z T
	return unsafe.Sizeof(z)
}

// convertSamples converts between sample slices, returning the input
// unchanged when F and T are the same type. Callers rule out narrowing
// first.
func convertSamples[F, T Float](v []F) []T {
	if out, ok := any(v).([]T); ok {
		return out
	}
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}
