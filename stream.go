package qoz

// Streaming slab format. Large fields are chunked along their slowest
// dimension into independently compressed slabs so that compression and
// decompression parallelize across the worker pool and a reader can
// consume a stream slab by slab. Layout (integers are unsigned varints
// unless noted):
//
//	magic "QOZS" | version u8 | codec id u8 | kind u8 (0=f32, 1=f64) |
//	ndims u8 | dims... | absBound f64 LE | slabRows | nslabs |
//	nslabs × (payloadLen | payload)
//
// Each payload is the slab's EncodePayload form: the codec's own container
// stream (kind 0) or the float64 escape envelope wrapping one (kind 1). The absolute
// bound is resolved once over the whole field before slabbing, so the
// error guarantee is unaffected by the chunking, and identical options
// produce bit-identical streams through the in-memory Encode and a
// hand-constructed Encoder.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"qoz/internal/container"
	"qoz/internal/pool"
)

const (
	streamMagic   = "QOZS"
	streamVersion = 1

	kindFloat32 = 0
	kindFloat64 = 1

	// DefaultSlabPoints is the default slab granularity: 4 Mi points,
	// i.e. 16 MiB of float32 payload per slab.
	DefaultSlabPoints = 1 << 22

	// maxStreamDims matches the container format's dimension limit; the
	// point-count cap is container.MaxPoints, enforced through
	// container.CheckDims so every parser accepts the same header space.
	maxStreamDims  = 8
	maxSlabPayload = 1 << 31 // decode-side sanity cap on one slab's bytes

	// slabPayloadCap is maxSlabPayload clipped to what int can represent on
	// this platform: on 32-bit builds int(1<<31) would overflow to a
	// negative length, so a declared payload length is compared against this
	// bound BEFORE it is ever converted to int.
	slabPayloadCap = min(maxSlabPayload, math.MaxInt)
)

// ErrCorruptStream reports a malformed slab stream.
var ErrCorruptStream = errors.New("qoz: corrupt stream")

// IsStream reports whether buf begins a slab stream written by Encode or
// an Encoder.
func IsStream(buf []byte) bool {
	return len(buf) >= len(streamMagic) && string(buf[:len(streamMagic)]) == streamMagic
}

// StreamOptions configures an Encoder.
type StreamOptions struct {
	// Codec compresses the slabs; nil selects the registry default.
	Codec Codec
	// Opts carries the error bound and tuning knobs. A relative bound is
	// resolved against the whole field before slabbing.
	Opts Options
	// SlabPoints is the target number of points per slab (0 selects
	// DefaultSlabPoints). Slabs are whole rows of the slowest dimension.
	SlabPoints int
	// Workers bounds the goroutines an Encode runs on (<=0 selects
	// GOMAXPROCS): its concurrent slab compressions, and within each slab
	// that slab's own stages (the QoZ codec's tuner trials, level sweeps
	// and entropy coding), which share what the slabs leave idle —
	// max(1, Workers/slabs) each. The bytes do not depend on it.
	Workers int
}

// Encoder writes fields to an io.Writer in the slab stream format,
// compressing slabs concurrently on a bounded worker pool.
type Encoder struct {
	w  io.Writer
	so StreamOptions
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer, so StreamOptions) (*Encoder, error) {
	if w == nil {
		return nil, errors.New("qoz: nil writer")
	}
	if so.Codec == nil {
		c, err := Lookup(DefaultCodec)
		if err != nil {
			return nil, err
		}
		so.Codec = c
	}
	if so.SlabPoints <= 0 {
		so.SlabPoints = DefaultSlabPoints
	}
	return &Encoder{w: w, so: so}, nil
}

// Encode writes one float32 field to the underlying writer; EncodeT
// generalizes it over the sample type.
func (e *Encoder) Encode(ctx context.Context, data []float32, dims []int) error {
	return EncodeT(ctx, e, data, dims)
}

// EncodeT writes one field of sample type T through e. A relative bound is
// resolved over the whole field, and each slab becomes one payload of T's
// kind (see EncodePayload).
func EncodeT[T Float](ctx context.Context, e *Encoder, data []T, dims []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := ResolveAbsT(e.so.Opts, data)
	if err != nil {
		return err
	}
	if err := checkDims(dims, len(data)); err != nil {
		return err
	}
	rows, nslabs, rowPoints := planSlabs(dims, e.so.SlabPoints)
	payloads := make([][]byte, nslabs)
	// Workers the slabs leave idle go to each slab's own stages.
	slabCtx := pool.WithWorkers(ctx, pool.Share(e.so.Workers, nslabs))
	err = pool.RunErr(ctx, nslabs, e.so.Workers, func(i int) error {
		r0 := i * rows
		r1 := min(r0+rows, dims[0])
		sdims := append([]int{r1 - r0}, dims[1:]...)
		p, err := EncodePayload(slabCtx, e.so.Codec, data[r0*rowPoints:r1*rowPoints], sdims, opts)
		if err != nil {
			return fmt.Errorf("qoz: slab %d/%d: %w", i, nslabs, err)
		}
		payloads[i] = p
		return nil
	})
	if err != nil {
		return err
	}
	kind := uint8(kindFloat32)
	if elemSize[T]() == 8 {
		kind = kindFloat64
	}
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, streamMagic...)
	hdr = append(hdr, streamVersion, e.so.Codec.ID(), kind, uint8(len(dims)))
	for _, d := range dims {
		hdr = binary.AppendUvarint(hdr, uint64(d))
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(opts.ErrorBound))
	hdr = binary.AppendUvarint(hdr, uint64(rows))
	hdr = binary.AppendUvarint(hdr, uint64(nslabs))
	if _, err := e.w.Write(hdr); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, p := range payloads {
		k := binary.PutUvarint(tmp[:], uint64(len(p)))
		if _, err := e.w.Write(tmp[:k]); err != nil {
			return err
		}
		if _, err := e.w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// checkDims validates a dimension vector against the sample count,
// delegating range and overflow rules to the shared container validator.
func checkDims(dims []int, n int) error {
	p, err := container.CheckDims(dims)
	if err != nil {
		return fmt.Errorf("qoz: %w", err)
	}
	if p != n {
		return fmt.Errorf("qoz: dims %v describe %d points, data has %d", dims, p, n)
	}
	return nil
}

// planSlabs picks whole-row slabs of the slowest dimension sized near the
// configured point target.
func planSlabs(dims []int, slabPoints int) (rows, nslabs, rowPoints int) {
	rowPoints = 1
	for _, d := range dims[1:] {
		rowPoints *= d
	}
	rows = slabPoints / rowPoints
	if rows < 1 {
		rows = 1
	}
	if rows > dims[0] {
		rows = dims[0]
	}
	nslabs = (dims[0] + rows - 1) / rows
	return rows, nslabs, rowPoints
}

// StreamHeader describes a slab stream.
type StreamHeader struct {
	CodecID    uint8
	CodecName  string // "" when the id is not registered
	Float64    bool
	Dims       []int
	ErrorBound float64
	SlabRows   int
	NumSlabs   int
}

// Points returns the field's total point count.
func (h *StreamHeader) Points() int {
	p := 1
	for _, d := range h.Dims {
		p *= d
	}
	return p
}

// Decoder reads the slab stream format from an io.Reader, decompressing
// slabs concurrently through the codec registry.
type Decoder struct {
	// Workers bounds concurrent slab decompressions (<=0 selects
	// GOMAXPROCS). Set it before the first Decode call.
	Workers int

	br     *bufio.Reader
	hdr    *StreamHeader
	hdrErr error
	used   bool
	next   int // slabs consumed by NextSlab
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// Header parses and returns the stream header without consuming any slab
// payloads.
func (d *Decoder) Header() (*StreamHeader, error) {
	if d.hdr == nil && d.hdrErr == nil {
		d.hdr, d.hdrErr = readStreamHeader(d.br)
	}
	return d.hdr, d.hdrErr
}

func readStreamHeader(br *bufio.Reader) (*StreamHeader, error) {
	fixed := make([]byte, len(streamMagic)+4)
	if _, err := io.ReadFull(br, fixed); err != nil {
		return nil, ErrCorruptStream
	}
	if string(fixed[:len(streamMagic)]) != streamMagic {
		return nil, ErrCorruptStream
	}
	if fixed[4] != streamVersion {
		return nil, fmt.Errorf("qoz: unsupported stream version %d", fixed[4])
	}
	if fixed[6] != kindFloat32 && fixed[6] != kindFloat64 {
		return nil, ErrCorruptStream
	}
	h := &StreamHeader{CodecID: fixed[5], Float64: fixed[6] == kindFloat64}
	nd := int(fixed[7])
	if nd == 0 || nd > maxStreamDims {
		return nil, ErrCorruptStream
	}
	h.Dims = make([]int, nd)
	for i := range h.Dims {
		v, err := binary.ReadUvarint(br)
		if err != nil || v == 0 || v > math.MaxInt32 {
			return nil, ErrCorruptStream
		}
		h.Dims[i] = int(v)
	}
	if _, err := container.CheckDims(h.Dims); err != nil {
		return nil, ErrCorruptStream
	}
	var ebb [8]byte
	if _, err := io.ReadFull(br, ebb[:]); err != nil {
		return nil, ErrCorruptStream
	}
	h.ErrorBound = math.Float64frombits(binary.LittleEndian.Uint64(ebb[:]))
	rows, err := binary.ReadUvarint(br)
	if err != nil || rows == 0 || rows > uint64(h.Dims[0]) {
		return nil, ErrCorruptStream
	}
	h.SlabRows = int(rows)
	ns, err := binary.ReadUvarint(br)
	want := (h.Dims[0] + h.SlabRows - 1) / h.SlabRows
	if err != nil || ns != uint64(want) {
		return nil, ErrCorruptStream
	}
	h.NumSlabs = want
	if c, err := LookupID(h.CodecID); err == nil {
		h.CodecName = c.Name()
	}
	return h, nil
}

// Decode reads and reconstructs a float32 stream's field; DecodeT
// generalizes it over the sample type.
func (d *Decoder) Decode(ctx context.Context) ([]float32, []int, error) {
	return DecodeT[float32](ctx, d)
}

// DecodeT reads and reconstructs the stream's field as samples of type T,
// restoring escaped double-precision points exactly. A float32 stream
// widens exactly into float64 samples; a float64 stream into float32
// samples is refused with ErrNarrowing before anything is read.
func DecodeT[T Float](ctx context.Context, d *Decoder) ([]T, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hdr, err := headerFor[T](d)
	if err != nil {
		return nil, nil, err
	}
	if d.used {
		return nil, nil, errors.New("qoz: stream already decoded")
	}
	d.used = true
	payloads := make([][]byte, hdr.NumSlabs)
	for i := range payloads {
		if payloads[i], err = d.readPayload(ctx); err != nil {
			return nil, nil, err
		}
	}
	// Decode every slab before sizing the output: the field size the
	// header declares is only trusted once the payloads actually decode
	// to it, so a hostile header cannot force a giant allocation.
	slabs := make([][]T, hdr.NumSlabs)
	err = pool.RunErr(ctx, hdr.NumSlabs, d.Workers, func(i int) error {
		var err error
		slabs[i], _, err = decodeSlab[T](ctx, hdr, i, payloads[i])
		payloads[i] = nil
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]T, 0, hdr.Points())
	for _, s := range slabs {
		out = append(out, s...)
	}
	return out, hdr.Dims, nil
}

// NextSlab decodes and returns the next slab of a float32 stream; NextSlabT
// generalizes it over the sample type.
func (d *Decoder) NextSlab(ctx context.Context) ([]float32, []int, error) {
	return NextSlabT[float32](ctx, d)
}

// NextSlabT decodes and returns the next slab of the stream in slab order
// as samples of type T (under DecodeT's widening rule), along with the
// slab's dimensions; its rows start at row index*SlabRows of the whole
// field. It returns io.EOF after the last slab. NextSlabT lets consumers
// such as the brick store re-partition a huge stream without ever
// materializing the whole field; it cannot be mixed with DecodeT on the
// same Decoder.
func NextSlabT[T Float](ctx context.Context, d *Decoder) ([]T, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hdr, err := headerFor[T](d)
	if err != nil {
		return nil, nil, err
	}
	if d.used && d.next == 0 {
		return nil, nil, errors.New("qoz: stream already decoded")
	}
	d.used = true
	if d.next >= hdr.NumSlabs {
		return nil, nil, io.EOF
	}
	p, err := d.readPayload(ctx)
	if err != nil {
		return nil, nil, err
	}
	data, sdims, err := decodeSlab[T](ctx, hdr, d.next, p)
	if err != nil {
		return nil, nil, err
	}
	d.next++ // committed only after a clean decode
	return data, sdims, nil
}

// headerFor returns the stream header once it is known that the stream can
// be decoded into samples of type T: its kind does not need narrowing and
// its codec is registered.
func headerFor[T Float](d *Decoder) (*StreamHeader, error) {
	hdr, err := d.Header()
	if err != nil {
		return nil, err
	}
	if hdr.Float64 && elemSize[T]() == 4 {
		return nil, ErrNarrowing
	}
	if _, err := LookupID(hdr.CodecID); err != nil {
		return nil, err
	}
	return hdr, nil
}

// readPayload reads the next slab's framed payload bytes.
func (d *Decoder) readPayload(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(d.br)
	if err != nil || n > slabPayloadCap {
		return nil, ErrCorruptStream
	}
	p, err := readN(d.br, int(n))
	if err != nil {
		return nil, ErrCorruptStream
	}
	return p, nil
}

// decodeSlab decodes slab i's payload, holding it to what the stream
// header declared — sample kind, codec and slab shape — before the codec
// allocates anything from it.
func decodeSlab[T Float](ctx context.Context, hdr *StreamHeader, i int, p []byte) ([]T, []int, error) {
	lo, hi, sdims := slabRange(hdr, i)
	f64, id, pdims, err := PeekPayload(p)
	if err != nil {
		return nil, nil, fmt.Errorf("qoz: slab %d: %w", i, err)
	}
	if f64 != hdr.Float64 || id != hdr.CodecID || !slices.Equal(pdims, sdims) {
		return nil, nil, ErrCorruptStream
	}
	data, dims, err := DecodePayload[T](ctx, p)
	if err != nil {
		return nil, nil, fmt.Errorf("qoz: slab %d: %w", i, err)
	}
	if !slices.Equal(dims, sdims) || len(data) != hi-lo {
		return nil, nil, ErrCorruptStream
	}
	return data, sdims, nil
}

// readN reads exactly n bytes, growing the buffer chunk by chunk so a
// corrupt declared length cannot force a giant up-front allocation.
func readN(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 16
	out := make([]byte, 0, min(n, chunk))
	for len(out) < n {
		k := min(n-len(out), chunk)
		start := len(out)
		out = append(out, make([]byte, k)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// slabRange returns the point range and dimensions of slab i.
func slabRange(hdr *StreamHeader, i int) (lo, hi int, sdims []int) {
	rowPoints := 1
	for _, d := range hdr.Dims[1:] {
		rowPoints *= d
	}
	r0 := i * hdr.SlabRows
	r1 := min(r0+hdr.SlabRows, hdr.Dims[0])
	sdims = append([]int{r1 - r0}, hdr.Dims[1:]...)
	return r0 * rowPoints, r1 * rowPoints, sdims
}
