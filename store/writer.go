package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"qoz"
	"qoz/internal/container"
	"qoz/internal/grid"
	"qoz/internal/pool"
)

// WriteOptions configures store construction.
type WriteOptions struct {
	// Codec compresses the bricks; nil selects the registry default (or,
	// in WriteFrom, the source stream's codec).
	Codec qoz.Codec
	// Opts carries the error bound and tuning knobs. The incremental
	// Writer requires an absolute ErrorBound (it never sees the whole
	// field); Write resolves a RelBound over the in-memory field first.
	Opts qoz.Options
	// Brick is the brick shape, one extent per field dimension; nil
	// selects DefaultBrick(dims).
	Brick []int
	// Workers bounds the goroutines a write runs on (<=0 selects
	// GOMAXPROCS): its concurrent brick compressions, and within each
	// brick that brick's own stages (the QoZ codec's tuner trials, level
	// sweeps and entropy coding), which share what the bricks of a band
	// leave idle — max(1, Workers/bricks) each. The bytes do not depend on
	// it.
	Workers int
	// Float64 selects double-precision elements for CreateMutable, whose
	// element type cannot come from a type parameter (the store it creates
	// is empty). The generic Writer and WriteT derive the element type
	// from T and ignore this field.
	Float64 bool
}

// DefaultBrick picks a brick shape for a field: the largest power-of-two
// cube (clipped per-dimension to the field) holding at most 2^18 points,
// i.e. 1 MiB of float32 (2 MiB of float64) per brick — small enough that
// a region of interest touches little excess data, large enough that
// per-brick compression overhead stays negligible.
func DefaultBrick(dims []int) []int {
	const targetPoints = 1 << 18
	n := len(dims)
	edge := 1
	for {
		next := edge * 2
		p := 1
		for i := 0; i < n; i++ {
			p *= next
			if p > targetPoints {
				break
			}
		}
		if p > targetPoints {
			break
		}
		edge = next
	}
	out := make([]int, n)
	for i, d := range dims {
		out[i] = min(edge, d)
	}
	return out
}

// Writer builds a brick store into a plain io.Writer incrementally: whole
// rows of the slowest dimension are appended in order, and each time a
// full band of brick[0] rows accumulates it is cut into bricks, compressed
// concurrently, and flushed, so peak memory is one band regardless of
// field size. Close writes the manifest and the generation footer: the
// result is a journal of exactly one generation — the same format
// CreateMutable starts and Mutable grows — so OpenMutable can later append
// to, rewrite, or compact a file a Writer produced. The Writer itself is
// only a sink (it never seeks or syncs; durability is the caller's). The
// type parameter is the element type of the field being written; each
// brick is one qoz.EncodePayload payload of that kind.
type Writer[T qoz.Float] struct {
	w       io.Writer
	hdr     *header
	codec   qoz.Codec
	opts    qoz.Options
	workers int

	rowPoints int
	rowsSeen  int
	pending   []T
	bricks    []brickEntry
	off       int64 // bytes written so far = where the next payload lands
	closed    bool
	// writeErr poisons the writer once bytes may have reached w from a
	// failed band write: after a partial write the underlying stream is
	// misaligned with the manifest, so a retried Append would build a store
	// whose later bricks fail their checksums only when read.
	writeErr error
}

// NewWriter starts a float32 brick store over a field of the given dims;
// NewWriterT generalizes it over the element type. The error bound in
// wo.Opts must be absolute; use qoz.Options.ResolveAbs (or the Write
// convenience) to fold a relative bound first.
func NewWriter(w io.Writer, dims []int, wo WriteOptions) (*Writer[float32], error) {
	return NewWriterT[float32](w, dims, wo)
}

// NewWriterT starts a brick store of element type T over a field of the
// given dims. The error bound in wo.Opts must be absolute; use
// qoz.ResolveAbsT (or the WriteT convenience) to fold a relative bound
// first.
func NewWriterT[T qoz.Float](w io.Writer, dims []int, wo WriteOptions) (*Writer[T], error) {
	if w == nil {
		return nil, errors.New("store: nil writer")
	}
	if _, err := container.CheckDims(dims); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	hdr, codec, err := newHeader(dims, wo, elemBytes[T]() == 8)
	if err != nil {
		return nil, err
	}
	hb := appendHeader(nil, hdr)
	if _, err := w.Write(hb); err != nil {
		return nil, err
	}
	rowPoints := 1
	for _, d := range dims[1:] {
		rowPoints *= d
	}
	return &Writer[T]{
		w:         w,
		hdr:       hdr,
		codec:     codec,
		opts:      wo.Opts,
		workers:   wo.Workers,
		rowPoints: rowPoints,
		bricks:    make([]brickEntry, 0, hdr.numBricks()),
		off:       int64(len(hb)),
	}, nil
}

// newHeader validates a store's construction options against its extents
// and builds the header both constructors write, resolving the codec on
// the way. dims[0] == 0 marks CreateMutable's empty store, whose slowest
// extent is unbounded: its brick shape is then chosen, clipped and
// size-checked as if that extent were as large as extents get.
func newHeader(dims []int, wo WriteOptions, float64s bool) (*header, qoz.Codec, error) {
	if wo.Opts.RelBound > 0 {
		return nil, nil, errors.New("store: an absolute ErrorBound is required; resolve RelBound with Options.ResolveAbs once there is data to resolve it against")
	}
	// Mirror parseHeader's bound validation: a non-finite bound would write
	// a file every subsequent Open rejects as corrupt.
	if eb := wo.Opts.ErrorBound; eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, nil, errors.New("store: a positive, finite ErrorBound is required")
	}
	codec := wo.Codec
	if codec == nil {
		c, err := qoz.Lookup(qoz.DefaultCodec)
		if err != nil {
			return nil, nil, err
		}
		codec = c
	}
	extents := dims
	if dims[0] == 0 {
		extents = append([]int{math.MaxInt32}, dims[1:]...)
	}
	brick := append([]int(nil), wo.Brick...) // clipping below must not mutate the caller's slice
	if wo.Brick == nil {
		brick = DefaultBrick(extents)
	}
	if len(brick) != len(dims) {
		return nil, nil, fmt.Errorf("store: brick rank %d, field rank %d", len(brick), len(dims))
	}
	for i, b := range brick {
		if b <= 0 {
			return nil, nil, fmt.Errorf("store: invalid brick extent %d", b)
		}
		// Clip to the field so the header never declares excess extents.
		brick[i] = min(b, extents[i])
	}
	kind := uint8(kindFloat32)
	if float64s {
		kind = kindFloat64
	}
	if p := clippedBrickPoints(extents, brick); p > maxBrickBytes/kindSize(kind) {
		return nil, nil, fmt.Errorf("store: brick shape %v holds %d %s points (max %d)",
			brick, p, kindName(kind), maxBrickBytes/kindSize(kind))
	}
	return &header{
		version: formatVersion,
		codecID: codec.ID(),
		kind:    kind,
		dims:    append([]int(nil), dims...),
		brick:   brick,
		bound:   wo.Opts.ErrorBound,
	}, codec, nil
}

// Append adds whole rows (slices along the slowest dimension) to the
// store, flushing full brick bands as they complete. Whole bands are cut
// straight from the caller's slice; only a sub-band tail is ever buffered,
// so the writer's peak state stays at one band regardless of how much is
// appended at once.
func (bw *Writer[T]) Append(ctx context.Context, rows []T) error {
	if bw.closed {
		return errors.New("store: writer closed")
	}
	if bw.writeErr != nil {
		return fmt.Errorf("store: writer poisoned by earlier write failure: %w", bw.writeErr)
	}
	if len(rows)%bw.rowPoints != 0 {
		return fmt.Errorf("store: append of %d points is not whole rows of %d", len(rows), bw.rowPoints)
	}
	nr := len(rows) / bw.rowPoints
	total := bw.rowsSeen + nr
	if total > bw.hdr.dims[0] {
		return fmt.Errorf("store: append past field end (%d+%d of %d rows)", bw.rowsSeen, nr, bw.hdr.dims[0])
	}
	// rowsSeen is only advanced as rows are actually committed — flushed in
	// a band, or buffered in pending — never up front: after a failed or
	// cancelled flush the uncommitted rows are not counted, so Close reports
	// the field incomplete and a retrying caller can re-Append them without
	// corrupting brick order.
	//
	// emittable returns how many rows of a `have`-row prefix form the next
	// band: a full band, or the final clipped one once the field is done.
	emittable := func(have int) int {
		switch {
		case have >= bw.hdr.brick[0]:
			return bw.hdr.brick[0]
		case total == bw.hdr.dims[0] && have > 0:
			return have
		}
		return 0
	}
	bandPts := bw.hdr.brick[0] * bw.rowPoints
	for {
		if len(bw.pending) > 0 {
			// Top the buffered tail up to one band, flush it, and return to
			// the zero-copy path; pending never grows past a band. Buffered
			// rows count as committed: a failed flush leaves them in pending,
			// where the next Append retries the band.
			take := min(bandPts-len(bw.pending), len(rows))
			bw.pending = append(bw.pending, rows[:take]...)
			bw.rowsSeen += take / bw.rowPoints
			rows = rows[take:]
			n := emittable(len(bw.pending) / bw.rowPoints)
			if n == 0 {
				return nil // still short of a band, field unfinished
			}
			if err := bw.flushBand(ctx, bw.pending[:n*bw.rowPoints], n); err != nil {
				return err
			}
			bw.pending = bw.pending[:copy(bw.pending, bw.pending[n*bw.rowPoints:])]
			continue
		}
		n := emittable(len(rows) / bw.rowPoints)
		if n == 0 {
			// Sub-band tail: buffer it until more rows arrive.
			bw.pending = append(bw.pending, rows...)
			bw.rowsSeen += len(rows) / bw.rowPoints
			return nil
		}
		if err := bw.flushBand(ctx, rows[:n*bw.rowPoints], n); err != nil {
			return err
		}
		bw.rowsSeen += n
		rows = rows[n*bw.rowPoints:]
	}
}

// RowsAppended returns how many rows have been committed — flushed into
// bricks or buffered in the current sub-band tail. After a failed Append
// whose failure preceded any byte reaching the writer (a compression
// error or context cancellation), a retrying caller resumes from this
// row; once a band write itself fails the writer is poisoned and every
// further Append and Close reports it, because the underlying stream may
// hold partial bytes the index cannot account for.
func (bw *Writer[T]) RowsAppended() int { return bw.rowsSeen }

// flushBand compresses and writes one band of `rows` rows held in band.
func (bw *Writer[T]) flushBand(ctx context.Context, band []T, rows int) error {
	payloads, entries, err := compressBand(ctx, bw.hdr, bw.codec, bw.opts, bw.workers, band, rows, len(bw.bricks))
	if err != nil {
		return err
	}
	for k, p := range payloads {
		if _, err := bw.w.Write(p); err != nil {
			bw.writeErr = err
			return err
		}
		entries[k].off = bw.off
		bw.off += int64(len(p))
		bw.bricks = append(bw.bricks, entries[k])
	}
	return nil
}

// brickLevelTable derives one brick's progressive level table from its
// payload: the codec's level boundaries with a CRC over each prefix. A
// payload without level segments (another codec, or a stream layout
// predating segmentation) gets no table — readers then fall back to
// full-brick decodes, never an error.
func brickLevelTable(p []byte) []levelSpan {
	offs, err := qoz.LevelOffsets(p)
	if err != nil || len(offs) == 0 || len(offs) > maxLevelEntries {
		return nil
	}
	spans := make([]levelSpan, len(offs))
	crc := uint32(0)
	prev := 0
	for j, off := range offs {
		// Entry j must carry level len(offs)-j (seed stage first): reject
		// payloads whose boundaries disagree rather than writing a table
		// the reader would misinterpret.
		if off.Level != len(offs)-j || off.Bytes <= prev || off.Bytes > len(p) {
			return nil
		}
		crc = crc32.Update(crc, crc32.IEEETable, p[prev:off.Bytes])
		spans[j] = levelSpan{bytes: int64(off.Bytes), crc: crc}
		prev = off.Bytes
	}
	if spans[len(spans)-1].bytes != int64(len(p)) {
		return nil
	}
	return spans
}

// compressBand compresses one band of `rows` rows into its per-brick
// payloads and manifest entries (offsets still unset), in brick order. The
// band is the full cross-product of the grid over dims[1:] — the global
// brick order visits all of band k before band k+1, so emitting per band
// preserves it. brickBase is the global index of the band's first brick,
// which is what places the band in the field.
func compressBand[T qoz.Float](ctx context.Context, hdr *header, codec qoz.Codec, opts qoz.Options,
	workers int, band []T, rows, brickBase int) ([][]byte, []brickEntry, error) {
	bk := hdr.bricks()
	nd, nb := bk.Rank, bk.Count()/bk.Grid[0]
	// The band as a box of the field, and as an array of its own.
	var lo grid.Coord
	lo[0] = brickBase / nb * hdr.brick[0]
	hi, bandDims := bk.Dims, bk.Dims
	hi[0], bandDims[0] = lo[0]+rows, rows
	payloads := make([][]byte, nb)
	entries := make([]brickEntry, nb)
	// Workers the band's bricks leave idle go to each brick's own stages.
	brickCtx := pool.WithWorkers(ctx, pool.Share(workers, nb))
	err := pool.RunErr(ctx, nb, workers, func(k int) error {
		p := bk.Piece(brickBase+k, lo[:nd], hi[:nd])
		srcLo, size := grid.Sub(p.Lo[:nd], lo[:nd]), grid.Sub(p.Hi[:nd], p.Lo[:nd])
		var err error
		payloads[k], entries[k], err = compressBrick(brickCtx, codec, opts, band, bandDims[:nd], srcLo[:nd], size[:nd], brickBase+k)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return payloads, entries, nil
}

// compressBrick cuts the box of shape size at srcLo out of src (a field
// of shape srcDims) and returns its compressed payload with the manifest
// entry describing it — length, checksum, level table, statistics; only
// the offset is the caller's to fill in once the payload is placed. It is
// the one place a brick is made, for the Writer, the mutable append and
// the mutable rewrite alike, and runs on their worker pools; brick numbers
// the error.
func compressBrick[T qoz.Float](ctx context.Context, codec qoz.Codec, opts qoz.Options,
	src []T, srcDims, srcLo, size []int, brick int) ([]byte, brickEntry, error) {
	origin := make([]int, len(size))
	buf := make([]T, boxPoints(origin, size))
	copyBox(buf, size, origin, src, srcDims, srcLo, size)
	p, err := qoz.EncodePayload(ctx, codec, buf, size, opts)
	if err != nil {
		return nil, brickEntry{}, fmt.Errorf("store: brick %d: %w", brick, err)
	}
	return p, brickEntry{
		len:    int64(len(p)),
		crc:    crc32.ChecksumIEEE(p),
		levels: brickLevelTable(p),
		stat:   computeBrickStat(buf),
	}, nil
}

// Close verifies the field is complete and commits it as generation 1:
// the manifest, then the footer.
func (bw *Writer[T]) Close() error {
	if bw.closed {
		return errors.New("store: writer closed")
	}
	bw.closed = true
	if bw.writeErr != nil {
		return fmt.Errorf("store: writer poisoned by earlier write failure: %w", bw.writeErr)
	}
	if bw.rowsSeen != bw.hdr.dims[0] || len(bw.pending) != 0 {
		return fmt.Errorf("store: field incomplete: %d of %d rows appended", bw.rowsSeen, bw.hdr.dims[0])
	}
	if len(bw.bricks) != bw.hdr.numBricks() {
		return fmt.Errorf("store: wrote %d bricks, expected %d", len(bw.bricks), bw.hdr.numBricks())
	}
	man, foot, _ := sealGeneration(bw.hdr, 1, 0, bw.bricks, bw.off)
	_, err := bw.w.Write(append(man, foot...))
	return err
}

// Write builds a float32 brick store from an in-memory field in one call,
// resolving a relative bound over the whole field first; WriteT
// generalizes it over the element type.
func Write(ctx context.Context, w io.Writer, data []float32, dims []int, wo WriteOptions) error {
	return WriteT(ctx, w, data, dims, wo)
}

// WriteT builds a brick store of element type T from an in-memory field in
// one call, resolving a relative bound over the whole field first.
func WriteT[T qoz.Float](ctx context.Context, w io.Writer, data []T, dims []int, wo WriteOptions) error {
	// Validate shape before NewWriterT emits the header, so a rejected call
	// never leaves partial bytes in the caller's writer.
	if p, err := container.CheckDims(dims); err != nil {
		return fmt.Errorf("store: %w", err)
	} else if p != len(data) {
		return fmt.Errorf("store: dims %v describe %d points, data has %d", dims, p, len(data))
	}
	opts, err := qoz.ResolveAbsT(wo.Opts, data)
	if err != nil {
		return err
	}
	wo.Opts = opts
	bw, err := NewWriterT[T](w, dims, wo)
	if err != nil {
		return err
	}
	if err := bw.Append(ctx, data); err != nil {
		return err
	}
	return bw.Close()
}

// WriteFrom re-bricks a slab stream — float32 or float64 — into a store of
// the same element type without materializing the whole field: slabs are
// decoded one at a time and appended. The stream's absolute bound is
// carried over, and its codec is used when wo.Codec is nil. Note that
// re-bricking re-compresses the stream's reconstruction under the same
// bound, so values in the store lie within at most twice the original
// bound of the original field.
func WriteFrom(ctx context.Context, w io.Writer, dec *qoz.Decoder, wo WriteOptions) error {
	hdr, err := dec.Header()
	if err != nil {
		return err
	}
	wo.Opts.ErrorBound, wo.Opts.RelBound = hdr.ErrorBound, 0
	if wo.Codec == nil {
		// Carry the stream's own codec over. Silently substituting the
		// registry default here would re-compress every brick with a codec
		// the caller never chose; an unregistered id must be an error.
		if hdr.CodecName == "" {
			return fmt.Errorf("store: stream codec id %d is not registered; pass WriteOptions.Codec explicitly", hdr.CodecID)
		}
		c, err := qoz.LookupID(hdr.CodecID)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		wo.Codec = c
	}
	if hdr.Float64 {
		return writeFromSlabs[float64](ctx, w, dec, hdr.Dims, wo)
	}
	return writeFromSlabs[float32](ctx, w, dec, hdr.Dims, wo)
}

// writeFromSlabs drains dec into a Writer of the stream's sample kind.
func writeFromSlabs[T qoz.Float](ctx context.Context, w io.Writer, dec *qoz.Decoder, dims []int, wo WriteOptions) error {
	bw, err := NewWriterT[T](w, dims, wo)
	if err != nil {
		return err
	}
	for {
		data, _, err := qoz.NextSlabT[T](ctx, dec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := bw.Append(ctx, data); err != nil {
			return err
		}
	}
	return bw.Close()
}
