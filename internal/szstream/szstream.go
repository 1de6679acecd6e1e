// Package szstream packages the common payload of the SZ-family codecs
// (quantization bins, escaped literals, anchor values, codec-specific
// config) into the shared container format. The bins travel through the
// canonical Huffman coder; every section is then DEFLATE-compressed by the
// container when profitable (the paper's "Huffman & dictionary encoding"
// stage).
package szstream

import (
	"errors"

	"math"

	"qoz/internal/container"
	"qoz/internal/huffman"
	"qoz/internal/interp"
	"qoz/internal/pool"
)

// Section ids within an SZ-family stream.
const (
	SecBins     = 1
	SecLiterals = 2
	SecAnchors  = 3
	SecConfig   = 4
	// SecHuffTable holds the canonical Huffman table shared by every
	// per-level bin segment of a level-segmented stream (its presence is
	// what distinguishes the layout from the legacy single-segment one).
	SecHuffTable = 5

	// Level-segmented streams store each interpolation level's symbols in
	// its own sections, identified by id = base + level, so a reader can
	// locate level boundaries from the section framing alone. Level
	// maxLevel+1 is the seed stage (anchors, or the origin sample of
	// anchor-free streams); levels then run maxLevel..1 in stream order.
	SecLevelBinsBase = 64  // + level: huffman.Table segment of the level's bins
	SecLevelLitsBase = 128 // + level: float32 bytes of the level's escaped literals

	// MaxSegLevel bounds the level number a section id can carry. The
	// dimension caps (2^31 per extent) keep real levels at 32 or less.
	MaxSegLevel = 63
)

// SectionLevel maps a level-segment section id back to its level,
// reporting which stream (bins or literals) it belongs to.
func SectionLevel(id uint8) (level int, lits bool, ok bool) {
	switch {
	case id > SecLevelBinsBase && id <= SecLevelBinsBase+MaxSegLevel:
		return int(id - SecLevelBinsBase), false, true
	case id > SecLevelLitsBase && id <= SecLevelLitsBase+MaxSegLevel:
		return int(id - SecLevelLitsBase), true, true
	}
	return 0, false, false
}

// Payload is the pre-entropy-coding content of an SZ-family stream: the
// shared sections and the quantization symbols. In the level-segmented
// layout (EncodeLevels) Segments holds one segment per interpolation
// stage, ordered from the seed stage (level maxLevel+1) down to level 1
// as they appear in the stream; in the single-segment layout (Encode) it
// holds one run of Level 0, every stage's symbols in stream order, which
// interp.Pyramid.Decode takes whole.
type Payload struct {
	Anchors  []float32
	Config   []byte
	Segments []interp.Segment
}

// Encode wraps a single-segment payload, one run of Level 0, in a
// container. Anchor values are XOR-delta transformed before
// serialization: anchors sample a smooth coarse grid, so consecutive
// float32 bit patterns share their high bytes and the container's DEFLATE
// stage compresses the residue well — this keeps the paper's "nearly
// negligible" anchor overhead true even at very high compression ratios.
func Encode(codec uint8, dims []int, eb float64, p *Payload) ([]byte, error) {
	if len(p.Segments) != 1 || p.Segments[0].Level != 0 {
		return nil, errors.New("szstream: a single-segment payload needs one run of level 0")
	}
	run := p.Segments[0]
	s := &container.Stream{
		Codec:      codec,
		Dims:       dims,
		ErrorBound: eb,
		Sections: []container.Section{
			{ID: SecBins, Data: huffman.Encode(run.Bins)},
			{ID: SecLiterals, Data: container.Float32sToBytes(run.Literals)},
			{ID: SecAnchors, Data: container.Float32sToBytes(xorDelta(p.Anchors))},
			{ID: SecConfig, Data: p.Config},
		},
	}
	return container.Encode(s)
}

// xorDelta replaces each value's bits with the XOR against its predecessor
// (lossless, order-preserving). unXorDelta inverts it.
func xorDelta(vals []float32) []float32 {
	if len(vals) == 0 {
		return vals
	}
	out := make([]float32, len(vals))
	prev := uint32(0)
	for i, v := range vals {
		b := math.Float32bits(v)
		out[i] = math.Float32frombits(b ^ prev)
		prev = b
	}
	return out
}

func unXorDelta(vals []float32) []float32 {
	prev := uint32(0)
	for i, v := range vals {
		b := math.Float32bits(v) ^ prev
		vals[i] = math.Float32frombits(b)
		prev = b
	}
	return vals
}

// EncodeLevels wraps a level-segmented payload in a container. One
// canonical Huffman table is built over the bins of every segment and
// stored once (SecHuffTable); each segment's bins then become an
// independently decodable byte-aligned sub-stream, so the code costs what
// the legacy single-segment form does while any level-boundary prefix of
// the container remains decodable on its own. Sections are ordered
// config, anchors, table, then segments from the seed stage down to level
// 1 — exactly the order a progressive decoder consumes them.
//
// workers bounds the goroutines the entropy stage runs on, the caller's
// among them (0 or 1 runs it on the caller); the bytes do not depend on
// it. Above one, the table's histogram is counted in halves, the largest
// segment's Huffman bits are deflated in chunks as they complete, any
// free worker deflating the next chunk, and the other sections are coded
// and deflated alongside.
func EncodeLevels(codec uint8, dims []int, eb float64, p *Payload, workers int) ([]byte, error) {
	if len(p.Segments) == 0 {
		return nil, errors.New("szstream: a level payload needs a segment")
	}
	runs := make([][]uint32, len(p.Segments))
	for i, seg := range p.Segments {
		if seg.Level < 1 || seg.Level > MaxSegLevel {
			return nil, errors.New("szstream: segment level out of range")
		}
		runs[i] = seg.Bins
	}
	tbl := huffman.BuildTableWorkers(workers, runs...)
	s := &container.Stream{
		Codec:      codec,
		Dims:       dims,
		ErrorBound: eb,
		Sections: []container.Section{
			{ID: SecConfig, Data: p.Config},
			{ID: SecAnchors, Data: container.Float32sToBytes(xorDelta(p.Anchors))},
			{ID: SecHuffTable, Data: tbl.AppendHeader(nil)},
		},
	}
	binsAt := make([]int, len(p.Segments)) // section index of each segment's bins
	for i, seg := range p.Segments {
		binsAt[i] = len(s.Sections)
		s.Sections = append(s.Sections, container.Section{ID: uint8(SecLevelBinsBase + seg.Level)})
		if len(seg.Literals) > 0 {
			s.Sections = append(s.Sections, container.Section{
				ID:   uint8(SecLevelLitsBase + seg.Level),
				Data: container.Float32sToBytes(seg.Literals),
			})
		}
	}
	return encodeSections(s, tbl, p.Segments, binsAt, workers)
}

// encodeSections finishes EncodeLevels on up to workers goroutines. Task
// 0 codes the largest segment, handing its bytes to a container.Chunker
// in pieces as they complete; the next workers tasks deflate its chunks,
// each claiming the next chunk and deflating its pieces as they arrive,
// for that segment's DEFLATE is the stage's longest; the remaining tasks
// code (the other segments) and deflate (every other section) one
// section each. With one worker the tasks run in turn on the caller.
func encodeSections(s *container.Stream, tbl *huffman.Table, segs []interp.Segment, binsAt []int, workers int) ([]byte, error) {
	workers = max(1, workers)
	big := 0
	for i, seg := range segs {
		if len(seg.Bins) > len(segs[big].Bins) {
			big = i
		}
	}
	var rest []int                        // sections packed whole
	segOf := make([]int, len(s.Sections)) // bins section → segment, else -1
	for j := range s.Sections {
		segOf[j] = -1
		if j != binsAt[big] {
			rest = append(rest, j)
		}
	}
	for i, j := range binsAt {
		segOf[j] = i
	}
	packed := make([]container.Packed, len(s.Sections))
	var chunks container.Chunker
	pool.Fork(1+workers+len(rest), workers, func(_, task int) {
		switch {
		case task == 0:
			defer chunks.Close()
			j := binsAt[big]
			s.Sections[j].Data = tbl.EncodeSegmentPieces(segs[big].Bins, chunks.Write)
		case task <= workers:
			chunks.Deflate()
		default:
			j := rest[task-1-workers]
			if i := segOf[j]; i >= 0 {
				s.Sections[j].Data = tbl.EncodeSegment(segs[i].Bins)
			}
			packed[j] = container.Pack(s.Sections[j])
		}
	})
	j := binsAt[big]
	packed[j] = chunks.Packed(s.Sections[j])
	return container.EncodePacked(s, packed)
}

// IsLevelStream reports whether a decoded container uses the
// level-segmented layout.
func IsLevelStream(s *container.Stream) bool { return s.Section(SecHuffTable) != nil }

// DecodeStream recovers the payload of a decoded container of either
// layout, which the SecHuffTable section picks. A level-segmented
// container may be a prefix (container.DecodePrefix), in which case only
// the segments present are returned, in stream order; callers validate
// level coverage against their config. A single-segment container yields
// its bins and literals as one run of Level 0.
//
// The payload's Config, and a level-segmented container's literals
// (container.Float32sView), share the container's section memory: the
// caller releases s only once it is done with them.
func DecodeStream(s *container.Stream) (*Payload, error) {
	anchors, err := container.BytesToFloat32s(s.Section(SecAnchors))
	if err != nil {
		return nil, err
	}
	p := &Payload{Anchors: unXorDelta(anchors), Config: s.Section(SecConfig)}
	if IsLevelStream(s) {
		err = p.readLevels(s)
	} else {
		err = p.readRun(s)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Segment returns the segment for one level, or nil.
func (p *Payload) Segment(level int) *interp.Segment {
	for i := range p.Segments {
		if p.Segments[i].Level == level {
			return &p.Segments[i]
		}
	}
	return nil
}

// readLevels decodes the level sections of a level-segmented container
// against its shared table.
func (p *Payload) readLevels(s *container.Stream) error {
	tbl, rest, err := huffman.ParseTable(s.Section(SecHuffTable))
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("szstream: bytes after the huffman table")
	}
	defer tbl.Release() // the table dies with this call; its storage serves the next brick
	segs := 0
	for _, sec := range s.Sections {
		if _, lits, ok := SectionLevel(sec.ID); ok && !lits {
			segs++
		}
	}
	p.Segments = make([]interp.Segment, 0, segs)
	for _, sec := range s.Sections {
		level, lits, ok := SectionLevel(sec.ID)
		if !ok {
			continue
		}
		if lits {
			seg := p.Segment(level)
			if seg == nil {
				return errors.New("szstream: literal segment without bins segment")
			}
			if seg.Literals, err = container.Float32sView(sec.Data); err != nil {
				return err
			}
			continue
		}
		if p.Segment(level) != nil {
			return errors.New("szstream: duplicate level segment")
		}
		bins, err := tbl.DecodeSegment(sec.Data)
		if err != nil {
			return err
		}
		p.Segments = append(p.Segments, interp.Segment{Level: level, Bins: bins})
	}
	return nil
}

// readRun decodes the bins and literals of a single-segment container as
// one run.
func (p *Payload) readRun(s *container.Stream) error {
	binsRaw := s.Section(SecBins)
	if binsRaw == nil {
		return errors.New("szstream: missing bins section")
	}
	bins, err := huffman.Decode(binsRaw)
	if err != nil {
		return err
	}
	lits, err := container.BytesToFloat32s(s.Section(SecLiterals))
	if err != nil {
		return err
	}
	p.Segments = []interp.Segment{{Bins: bins, Literals: lits}}
	return nil
}

// Decode parses a container and recovers the payload, verifying the codec id.
func Decode(buf []byte, wantCodec uint8) (*container.Stream, *Payload, error) {
	s, err := container.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	if s.Codec != wantCodec {
		return nil, nil, container.ErrCodecMismatch
	}
	p, err := DecodeStream(s)
	if err != nil {
		return nil, nil, err
	}
	return s, p, nil
}
