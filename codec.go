package qoz

// Unified codec API. Every compressor in this repository — QoZ itself and
// the paper's comparison baselines — implements the Codec interface and is
// held in a process-wide registry keyed by both a canonical name and the
// codec identifier of the shared container format. The typed entry points
// Encode and Decode are generic over float32 and float64 fields, folding
// the double-precision escape envelope into the common path; the streaming
// Encoder/Decoder in stream.go share the same contract.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"qoz/internal/container"
	"qoz/internal/core"
	"qoz/internal/mgard"
	"qoz/internal/pool"
	"qoz/internal/sz2"
	"qoz/internal/sz3"
	"qoz/internal/zfp"
)

// Float constrains the sample types accepted by the typed API: IEEE-754
// single or double precision, or any type defined on them.
type Float interface{ ~float32 | ~float64 }

// Codec is the unified contract implemented by QoZ and every baseline
// compressor. Compress and Decompress operate on the pipeline's native
// float32 payload; double-precision fields go through the generic
// Encode/Decode, EncodePayload/DecodePayload or the streaming
// Encoder/Decoder, which wrap the codec in the escape envelope. Implementations must be safe for concurrent use.
// Compression is monolithic per call, so cancellation is observed at call
// boundaries; slab-level cancellation is provided by the streaming layer.
type Codec interface {
	// Name returns the canonical registry name, e.g. "qoz" or "sz3".
	Name() string
	// ID returns the container codec identifier embedded in streams.
	ID() uint8
	// Compress compresses a row-major field under opts.
	Compress(ctx context.Context, data []float32, dims []int, opts Options) ([]byte, error)
	// Decompress reconstructs a field compressed by Compress.
	Decompress(ctx context.Context, buf []byte) ([]float32, []int, error)
}

// DefaultCodec is the registry name of the repository's own compressor.
const DefaultCodec = "qoz"

var codecRegistry = struct {
	sync.RWMutex
	byName map[string]Codec
	byID   map[uint8]Codec
}{
	byName: map[string]Codec{},
	byID:   map[uint8]Codec{},
}

// Register adds a codec to the process-wide registry under its Name and
// ID; both must be unused.
func Register(c Codec) error {
	if c == nil {
		return errors.New("qoz: nil codec")
	}
	if c.Name() == "" {
		return errors.New("qoz: codec has no name")
	}
	codecRegistry.Lock()
	defer codecRegistry.Unlock()
	if _, ok := codecRegistry.byName[c.Name()]; ok {
		return fmt.Errorf("qoz: codec %q already registered", c.Name())
	}
	if _, ok := codecRegistry.byID[c.ID()]; ok {
		return fmt.Errorf("qoz: codec id %d already registered", c.ID())
	}
	codecRegistry.byName[c.Name()] = c
	codecRegistry.byID[c.ID()] = c
	return nil
}

// Lookup returns the codec registered under the given name.
func Lookup(name string) (Codec, error) {
	codecRegistry.RLock()
	defer codecRegistry.RUnlock()
	c, ok := codecRegistry.byName[name]
	if !ok {
		return nil, fmt.Errorf("qoz: unknown codec %q (have %v)", name, codecNamesLocked())
	}
	return c, nil
}

// LookupID returns the codec registered under the given container codec
// identifier.
func LookupID(id uint8) (Codec, error) {
	codecRegistry.RLock()
	defer codecRegistry.RUnlock()
	c, ok := codecRegistry.byID[id]
	if !ok {
		return nil, fmt.Errorf("qoz: no codec registered for stream id %d", id)
	}
	return c, nil
}

// MustLookup is Lookup for a name known to be registered; it panics
// otherwise.
func MustLookup(name string) Codec {
	c, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Codecs returns the sorted names of all registered codecs.
func Codecs() []string {
	codecRegistry.RLock()
	defer codecRegistry.RUnlock()
	return codecNamesLocked()
}

func codecNamesLocked() []string {
	names := make([]string, 0, len(codecRegistry.byName))
	for n := range codecRegistry.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	for _, c := range []Codec{
		qozCodec{},
		ebCodec{"sz2", container.CodecSZ2, sz2.Compress, sz2.Decompress},
		ebCodec{"sz3", container.CodecSZ3, sz3.Compress, sz3.Decompress},
		ebCodec{"zfp", container.CodecZFP, zfp.Compress, zfp.Decompress},
		ebCodec{"mgard", container.CodecMGARD, mgard.Compress, mgard.Decompress},
	} {
		if err := Register(c); err != nil {
			panic(err)
		}
	}
}

// qozCodec adapts the core QoZ pipeline to the Codec interface, honoring
// the full Options set (tuning metric, ablation switches, sampling knobs).
type qozCodec struct{}

func (qozCodec) Name() string { return DefaultCodec }
func (qozCodec) ID() uint8    { return container.CodecQoZ }

func (qozCodec) Compress(ctx context.Context, data []float32, dims []int, opts Options) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	co, err := opts.resolve(data)
	if err != nil {
		return nil, err
	}
	co.Workers = pool.Workers(ctx)
	return core.Compress(data, dims, co)
}

func (qozCodec) Decompress(ctx context.Context, buf []byte) ([]float32, []int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return core.Decompress(buf)
}

// ebCodec adapts a baseline compressor whose only knob is the absolute
// error bound; the remaining Options fields are ignored.
type ebCodec struct {
	name string
	id   uint8
	comp func([]float32, []int, float64) ([]byte, error)
	dec  func([]byte) ([]float32, []int, error)
}

func (c ebCodec) Name() string { return c.name }
func (c ebCodec) ID() uint8    { return c.id }

func (c ebCodec) Compress(ctx context.Context, data []float32, dims []int, opts Options) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eb, err := absBound(opts, data)
	if err != nil {
		return nil, err
	}
	return c.comp(data, dims, eb)
}

func (c ebCodec) Decompress(ctx context.Context, buf []byte) ([]float32, []int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return c.dec(buf)
}

// Encode compresses a row-major float32 or float64 field with c (nil
// selects the registry default), producing the self-describing slab stream
// that Decode, the streaming Decoder, and cmd/qozc all accept. Callers
// needing control over slab granularity or worker count should use an
// Encoder directly; Encode is exactly NewEncoder + EncodeT into memory, so
// the two paths produce identical bytes for identical options.
func Encode[T Float](ctx context.Context, c Codec, data []T, dims []int, opts Options) ([]byte, error) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, StreamOptions{Codec: c, Opts: opts})
	if err != nil {
		return nil, err
	}
	if err := EncodeT(ctx, enc, data, dims); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a field compressed by any registered codec,
// accepting every format this module produces or has produced: the slab
// stream written by Encode and the Encoder, and the bare payloads of
// EncodePayload and the codecs' own Compress — a container, or the float64
// envelope wrapping one. Decoding double-precision data into []float32 is
// refused with ErrNarrowing; float32 data widens exactly into []float64.
func Decode[T Float](ctx context.Context, buf []byte) ([]T, []int, error) {
	if IsStream(buf) {
		return DecodeT[T](ctx, NewDecoder(bytes.NewReader(buf)))
	}
	return DecodePayload[T](ctx, buf)
}

// decodeContainer routes a bare container stream to the registered codec
// named in its header.
func decodeContainer(ctx context.Context, buf []byte) ([]float32, []int, error) {
	id, err := container.PeekCodec(buf)
	if err != nil {
		return nil, nil, err
	}
	c, err := LookupID(id)
	if err != nil {
		return nil, nil, err
	}
	return c.Decompress(ctx, buf)
}
