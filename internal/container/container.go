// Package container defines the on-disk / in-memory compressed stream format
// shared by every codec in this repository, plus the DEFLATE helpers that
// play the role of the dictionary-coder stage (the paper uses Zstandard;
// DEFLATE is the stdlib equivalent, this module taking no dependencies).
//
// Layout:
//
//	magic "QOZG" | version u8 | codec id u8 | ndims u8 | dims varints |
//	eb float64 | nsections u8 | sections...
//
// Each section: id u8 | rawLen uvarint | encLen uvarint | encBytes.
// Sections are individually DEFLATE-compressed when that helps, signalled
// by encLen < rawLen; otherwise bytes are stored raw. A compressed
// section's encBytes is one raw RFC 1951 stream, with no zlib wrapper,
// that a reader inflates whole and that ends exactly at its final block.
// A writer may build that stream from byte-aligned pieces joined at sync
// flushes: Pack deflates a section in chunks of ChunkBytes raw bytes,
// while Encode and DeflatedLen deflate each section as one piece.
package container

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"unsafe"

	"qoz/internal/pool"
)

// Codec identifiers embedded in the stream header.
const (
	CodecQoZ    = 1
	CodecSZ3    = 2
	CodecSZ2    = 3
	CodecZFP    = 4
	CodecMGARD  = 5
	CodecRaw    = 6
	CodecHybrid = 7
	// CodecBrick identifies the brick-store file format of package
	// qoz/store. It is not a compressor: the store's header embeds this id
	// (alongside the id of the per-brick codec) so every on-disk format in
	// the module draws from one authoritative identifier space.
	CodecBrick = 8
)

// MaxPoints caps the total point count a decoded header may declare
// (2^34 points = 64 GiB of float32), matching the streaming layer's
// sanity cap. Hostile headers declaring more — or whose dimension product
// would overflow int — are rejected before anything is allocated.
const MaxPoints = 1 << 34

// CheckDims validates a dimension vector: 1..8 dimensions, each in
// [1, MaxInt32], with an overflow-safe product no larger than MaxPoints.
// It returns the product.
func CheckDims(dims []int) (int, error) {
	if len(dims) == 0 || len(dims) > 8 {
		return 0, fmt.Errorf("container: need 1..8 dimensions, got %d", len(dims))
	}
	p := 1
	for _, d := range dims {
		if d <= 0 || d > math.MaxInt32 {
			return 0, fmt.Errorf("container: invalid dimension %d", d)
		}
		if p > MaxPoints/d {
			return 0, fmt.Errorf("container: field of dims %v exceeds %d points", dims, MaxPoints)
		}
		p *= d
	}
	return p, nil
}

// CheckField validates a codec's input: a positive, finite error bound
// and n samples laid out by dims, which must pass CheckDims.
func CheckField(dims []int, n int, eb float64) error {
	if !(eb > 0) || math.IsInf(eb, 1) {
		return errors.New("container: error bound must be positive and finite")
	}
	p, err := CheckDims(dims)
	if err != nil {
		return err
	}
	if p != n {
		return fmt.Errorf("container: dims %v hold %d points, data has %d", dims, p, n)
	}
	return nil
}

const (
	magic   = "QOZG"
	version = 1
)

var (
	// ErrCorrupt reports a malformed stream.
	ErrCorrupt = errors.New("container: corrupt stream")
	// ErrCodecMismatch reports decoding with the wrong codec.
	ErrCodecMismatch = errors.New("container: codec mismatch")
)

// Section is one named byte payload within a stream.
type Section struct {
	ID   uint8
	Data []byte
}

// Stream is a decoded container.
type Stream struct {
	Codec      uint8
	Dims       []int
	ErrorBound float64
	Sections   []Section

	// slab holds every section's bytes, when Decode or DecodePrefix made
	// the stream: a pool.Slab that Release hands back.
	slab []byte
}

// Release hands back the memory Decode or DecodePrefix decoded the
// sections into, for the next stream to decode into: no section's Data
// may be read after it, nor anything viewing it (Float32sView). A second
// Release, or one of a stream built by hand, does nothing. A stream never
// released is left to the collector.
func (s *Stream) Release() {
	pool.PutSlab(s.slab)
	s.slab = nil
}

// Section returns the payload of the first section with the given id, or nil.
func (s *Stream) Section(id uint8) []byte {
	for _, sec := range s.Sections {
		if sec.ID == id {
			return sec.Data
		}
	}
	return nil
}

// Encode serializes a stream, DEFLATE-compressing each section when
// profitable.
func Encode(s *Stream) ([]byte, error) {
	out, err := appendHeader(s, len(s.Sections))
	if err != nil {
		return nil, err
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	for _, sec := range s.Sections {
		appendSection(out, Packed{ID: sec.ID, Raw: sec.Data, Enc: d.deflate(sec.Data)})
	}
	return out.Bytes(), nil
}

// Packed is a section as Encode frames it: its raw bytes and their DEFLATE
// stream, which is stored instead when it is smaller.
type Packed struct {
	ID       uint8
	Raw, Enc []byte
}

// ChunkBytes is the raw length Pack cuts a section into: every chunk but
// the last holds exactly this many bytes, whatever the worker budget.
// Each chunk is deflated by a compressor of its own, not primed with the
// previous chunk's bytes; every chunk but the last ends at a sync flush,
// so the chunks join into one ordinary DEFLATE stream (docs/FORMAT.md
// §3). A section of at most ChunkBytes is one chunk and packs exactly as
// Encode packs it. docs/PERFORMANCE.md (encode path §4) gives the sweep
// that chose the size.
const ChunkBytes = 64 << 10

// Pack deflates one section into memory of its own, chunk by chunk, so
// that sections can be packed on several goroutines and framed together
// by EncodePacked.
func Pack(sec Section) Packed {
	var c Chunker
	c.Write(sec.Data)
	c.Close()
	c.Deflate()
	return c.Packed(sec)
}

// Chunker packs one section whose bytes arrive in pieces, while they are
// still being produced, deflating its chunks on every goroutine that
// calls Deflate. One goroutine writes the pieces in order and then
// closes the Chunker; Write never blocks, so that goroutine may call
// Deflate too once it is done. Chunk boundaries are fixed offsets of the
// section and DEFLATE's output does not depend on how its input is cut
// into writes (TestDeflateIgnoresWriteBoundaries pins both), so the
// section packs to what Pack makes of it whole, however it is cut into
// pieces and however many goroutines deflate it. The zero value is
// ready to use.
type Chunker struct {
	mu     sync.Mutex
	more   sync.Cond // broadcast when a piece arrives or the writer closes
	pieces [][]byte  // the section so far, in order
	ends   []int     // ends[i] is the section offset just past pieces[i]
	closed bool
	next   int      // the next chunk to claim
	enc    [][]byte // each chunk's DEFLATE bytes
}

// Write appends the next piece of the section. Its bytes must not change
// after it is handed over.
func (c *Chunker) Write(piece []byte) {
	c.mu.Lock()
	c.pieces = append(c.pieces, piece)
	c.ends = append(c.ends, c.size()+len(piece))
	c.mu.Unlock()
	c.more.Broadcast()
}

// Close marks the section complete.
func (c *Chunker) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.more.Broadcast()
}

// size is the number of section bytes written so far; c.mu is held.
func (c *Chunker) size() int {
	if len(c.ends) == 0 {
		return 0
	}
	return c.ends[len(c.ends)-1]
}

// Deflate claims chunks and deflates them until none is left to claim,
// feeding each chunk's compressor the chunk's bytes as they arrive. It
// returns once the Chunker is closed and every chunk has been claimed.
func (c *Chunker) Deflate() {
	for c.deflateNext() {
	}
}

// deflateNext claims the next chunk and deflates it, reporting false
// when the section has no chunk left to claim.
func (c *Chunker) deflateNext() bool {
	c.mu.Lock()
	c.more.L = &c.mu
	k := c.next
	c.next++
	c.mu.Unlock()
	lo, hi := k*ChunkBytes, (k+1)*ChunkBytes
	var d *deflater
	for at := lo; ; {
		c.mu.Lock()
		for !c.closed && c.size() <= at {
			c.more.Wait()
		}
		pieces, ends, closed, size := c.pieces, c.ends, c.closed, c.size()
		c.mu.Unlock()
		if k > 0 && size <= lo {
			return false // closed, and every byte is in an earlier chunk
		}
		if d == nil {
			d = deflaters.Get().(*deflater)
			d.out.Reset()
			d.w.Reset(&d.out)
		}
		for i := sort.SearchInts(ends, at+1); at < min(size, hi); i++ {
			from, to := ends[i]-len(pieces[i]), min(ends[i], hi)
			if _, err := d.w.Write(pieces[i][at-from : to-from]); err != nil {
				panic(err) // an in-memory sink cannot fail
			}
			at = to
		}
		if size <= hi && !closed {
			continue // the chunk may have bytes still to come
		}
		// A byte past hi means a chunk follows: end this one at a sync
		// flush. Only the section's last chunk closes the stream.
		end := d.w.Flush
		if size <= hi {
			end = d.w.Close
		}
		if err := end(); err != nil {
			panic(err)
		}
		enc := bytes.Clone(d.out.Bytes())
		deflaters.Put(d)
		c.mu.Lock()
		c.enc = append(c.enc, make([][]byte, max(0, k+1-len(c.enc)))...)
		c.enc[k] = enc
		c.mu.Unlock()
		return true
	}
}

// Packed returns the section packed, once every Deflate call has
// returned. sec.Data must be the concatenation of the pieces written.
func (c *Chunker) Packed(sec Section) Packed {
	enc := c.enc[0]
	if len(c.enc) > 1 {
		enc = bytes.Join(c.enc, nil)
	}
	return Packed{ID: sec.ID, Raw: sec.Data, Enc: enc}
}

// EncodePacked serializes a stream with hdr's codec, dims and bound whose
// sections are secs, already packed, in order. It is what Encode makes
// of their raw bytes when no section is longer than ChunkBytes; a longer
// one holds the chunked DEFLATE stream Pack makes of it. hdr's own
// Sections are ignored.
func EncodePacked(hdr *Stream, secs []Packed) ([]byte, error) {
	out, err := appendHeader(hdr, len(secs))
	if err != nil {
		return nil, err
	}
	for _, sec := range secs {
		appendSection(out, sec)
	}
	return out.Bytes(), nil
}

// appendHeader starts the serialization of a stream with s's codec, dims
// and bound and nsec sections: everything before the first section.
func appendHeader(s *Stream, nsec int) (*bytes.Buffer, error) {
	if nsec > 255 {
		return nil, fmt.Errorf("container: too many sections (%d)", nsec)
	}
	if _, err := CheckDims(s.Dims); err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	out.WriteString(magic)
	out.WriteByte(version)
	out.WriteByte(s.Codec)
	out.WriteByte(uint8(len(s.Dims)))
	var tmp [binary.MaxVarintLen64]byte
	for _, d := range s.Dims {
		n := binary.PutUvarint(tmp[:], uint64(d))
		out.Write(tmp[:n])
	}
	binary.Write(out, binary.LittleEndian, s.ErrorBound)
	out.WriteByte(uint8(nsec))
	return out, nil
}

// appendSection frames one section, storing the smaller of its forms.
func appendSection(out *bytes.Buffer, sec Packed) {
	stored := sec.Enc
	if len(stored) >= len(sec.Raw) {
		stored = sec.Raw
	}
	var tmp [binary.MaxVarintLen64]byte
	out.WriteByte(sec.ID)
	n := binary.PutUvarint(tmp[:], uint64(len(sec.Raw)))
	out.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], uint64(len(stored)))
	out.Write(tmp[:n])
	out.Write(stored)
}

// PeekCodec returns the codec identifier of an encoded stream without
// decoding its sections, so callers can route the buffer to the right
// codec.
func PeekCodec(buf []byte) (uint8, error) {
	if len(buf) < len(magic)+2 || string(buf[:len(magic)]) != magic {
		return 0, ErrCorrupt
	}
	if buf[len(magic)] != version {
		return 0, fmt.Errorf("container: unsupported version %d", buf[len(magic)])
	}
	return buf[len(magic)+1], nil
}

// PeekHeader parses just the fixed prefix of an encoded stream — codec id
// and dimensions — without touching the sections, so callers holding an
// expectation about the field's shape (such as the brick store) can reject
// a hostile or mismatched payload before the codec allocates anything
// proportional to the declared dimensions.
func PeekHeader(buf []byte) (codec uint8, dims []int, err error) {
	codec, dims, _, err = peekHeader(buf)
	return codec, dims, err
}

// peekHeader parses magic, version, codec, and dims, returning the
// remaining bytes (error bound onward).
func peekHeader(buf []byte) (codec uint8, dims []int, rest []byte, err error) {
	if len(buf) < len(magic)+3 || string(buf[:len(magic)]) != magic {
		return 0, nil, nil, ErrCorrupt
	}
	buf = buf[len(magic):]
	if buf[0] != version {
		return 0, nil, nil, fmt.Errorf("container: unsupported version %d", buf[0])
	}
	codec = buf[1]
	nd := int(buf[2])
	buf = buf[3:]
	if nd == 0 || nd > 8 {
		return 0, nil, nil, ErrCorrupt
	}
	dims = make([]int, nd)
	for i := 0; i < nd; i++ {
		v, n := binary.Uvarint(buf)
		// Per-value bound first (an unchecked uvarint can exceed int), then
		// the shared overflow-safe product guard: a header declaring
		// astronomically large dimensions must error here, not wrap around
		// int or drive a giant allocation downstream.
		if n <= 0 || v == 0 || v > math.MaxInt32 {
			return 0, nil, nil, ErrCorrupt
		}
		dims[i] = int(v)
		buf = buf[n:]
	}
	if _, err := CheckDims(dims); err != nil {
		return 0, nil, nil, ErrCorrupt
	}
	return codec, dims, buf, nil
}

// Decode parses a container produced by Encode. A container ends exactly
// after its last declared section: trailing bytes are ErrCorrupt. Every
// section is read into one slab of the stream's own, the stored ones
// copied and the compressed ones inflated in memory (inflate.go); the
// caller may hand it back with Release once done with the sections.
func Decode(buf []byte) (*Stream, error) {
	return decode(buf, false)
}

// DecodePrefix parses a byte-exact prefix of an encoded container that
// ends on a section boundary: the header is required, but the stream may
// hold fewer sections than its header declares. Progressive readers use
// this to decode only the leading sections of a level-segmented stream
// after range-fetching a level-offset prefix. A prefix cut mid-section is
// rejected as corrupt, and so is one holding every declared section and
// then more bytes.
func DecodePrefix(buf []byte) (*Stream, error) {
	return decode(buf, true)
}

func decode(buf []byte, prefix bool) (*Stream, error) {
	// The first walk checks the framing and each declared raw length, and
	// sizes the one slab every section inflates into; the second fills it.
	total, nsec := 0, 0
	_, _, _, err := walkSections(buf, prefix, func(_ uint8, rawLen uint64, stored []byte, _ int) error {
		if uint64(len(stored)) < rawLen && !checkDeclared(rawLen, len(stored)) ||
			uint64(len(stored)) > rawLen {
			return ErrCorrupt
		}
		total += sectionSpan(int(rawLen))
		nsec++
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &Stream{Sections: make([]Section, 0, nsec), slab: pool.Slab[byte](total)}
	at := 0
	s.Codec, s.Dims, s.ErrorBound, err = walkSections(buf, prefix, func(id uint8, rawLen uint64, stored []byte, _ int) error {
		data := s.slab[at : at+int(rawLen) : at+int(rawLen)]
		at += sectionSpan(len(data))
		if len(stored) == len(data) {
			copy(data, stored)
		} else if err := inflateSection(data, stored); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s.Sections = append(s.Sections, Section{ID: id, Data: data})
		return nil
	})
	if err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// sectionSpan is the room a section of n raw bytes takes in a stream's
// slab: n rounded up to 8 bytes, so every section starts aligned for
// Float32sView.
func sectionSpan(n int) int { return (n + 7) &^ 7 }

// walkSections is the one reader of a container's framing: it parses the
// header and error bound, then calls visit with each section's id,
// declared raw length, stored bytes and the absolute offset just past it.
// With prefix set the buffer may stop at any section boundary; otherwise
// it must end exactly after the last declared section.
func walkSections(buf []byte, prefix bool, visit func(id uint8, rawLen uint64, stored []byte, end int) error) (codec uint8, dims []int, eb float64, err error) {
	codec, dims, rest, err := peekHeader(buf)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(rest) < 9 {
		return 0, nil, 0, ErrCorrupt
	}
	eb = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	nsec := int(rest[8])
	rest = rest[9:]
	for i := 0; i < nsec && !(prefix && len(rest) == 0); i++ {
		if len(rest) < 1 {
			return 0, nil, 0, ErrCorrupt
		}
		rawLen, n := binary.Uvarint(rest[1:])
		if n <= 0 {
			return 0, nil, 0, ErrCorrupt
		}
		storedLen, m := binary.Uvarint(rest[1+n:])
		head := 1 + n + m
		if m <= 0 || uint64(len(rest)-head) < storedLen {
			return 0, nil, 0, ErrCorrupt
		}
		id, stored := rest[0], rest[head:head+int(storedLen)]
		rest = rest[head+int(storedLen):]
		if err := visit(id, rawLen, stored, len(buf)-len(rest)); err != nil {
			return 0, nil, 0, err
		}
	}
	if len(rest) != 0 {
		return 0, nil, 0, ErrCorrupt
	}
	return codec, dims, eb, nil
}

// SectionSpan locates one section within an encoded container: its id and
// the absolute offset of the first byte past it. Spans let callers compute
// byte-exact stream prefixes (every prefix ending at a span's End decodes
// with DecodePrefix) without inflating any payload.
type SectionSpan struct {
	ID  uint8
	End int
}

// ScanSections walks an encoded container's section framing and returns
// one span per section, in stream order. Section payloads are not
// inflated or copied. Like Decode, it rejects bytes after the last
// declared section.
func ScanSections(buf []byte) ([]SectionSpan, error) {
	var spans []SectionSpan
	_, _, _, err := walkSections(buf, false, func(id uint8, _ uint64, _ []byte, end int) error {
		spans = append(spans, SectionSpan{ID: id, End: end})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return spans, nil
}

// deflater is a reusable DEFLATE stage at the default level: building a
// flate.Writer costs about a megabyte of tables, resetting one costs
// nothing, and a reset writer emits exactly what a new one would.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.DefaultCompression)
	if err != nil {
		panic(err) // only fails on an invalid level
	}
	return &deflater{w: w}
}}

// run compresses buf into dst. Writes to the in-memory sinks used here
// cannot fail, so an error is a bug in this package.
func (d *deflater) run(dst io.Writer, buf []byte) {
	d.w.Reset(dst)
	if _, err := d.w.Write(buf); err != nil {
		panic(err)
	}
	if err := d.w.Close(); err != nil {
		panic(err)
	}
}

// deflate compresses buf; the result is valid until d's next use.
func (d *deflater) deflate(buf []byte) []byte {
	d.out.Reset()
	d.run(&d.out, buf)
	return d.out.Bytes()
}

// byteCounter is a sink that only measures.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// DeflatedLen returns the size buf takes once DEFLATE-compressed as one
// whole stream, the way Encode compresses a section. The tuner prices
// trial streams with it. It does not chunk a long buf as Pack does: the
// price stays that of one stream, so no tuning decision depends on
// ChunkBytes.
func DeflatedLen(buf []byte) int {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var n byteCounter
	d.run(&n, buf)
	return int(n)
}

// Float32sToBytes serializes a float32 slice little-endian.
func Float32sToBytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// hostLittleEndian says whether this host keeps a float32's bytes in the
// order Float32sToBytes writes them.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Float32sView is BytesToFloat32s without the copy where it can be: on a
// little-endian host, for a buf aligned for float32 — as every section of
// a decoded Stream is — the values share buf's memory, and live no longer
// than it does. Elsewhere they are a copy.
func Float32sView(buf []byte) ([]float32, error) {
	if len(buf)%4 != 0 {
		return nil, ErrCorrupt
	}
	if len(buf) == 0 || !hostLittleEndian || uintptr(unsafe.Pointer(&buf[0]))%4 != 0 {
		return BytesToFloat32s(buf)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&buf[0])), len(buf)/4), nil
}

// BytesToFloat32s reverses Float32sToBytes.
func BytesToFloat32s(buf []byte) ([]float32, error) {
	if len(buf)%4 != 0 {
		return nil, ErrCorrupt
	}
	out := make([]float32, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}
