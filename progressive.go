package qoz

// Progressive (multi-resolution) decoding. QoZ streams are emitted in
// level order — seed stage first, then interpolation levels from coarsest
// to finest — with each level in its own byte-aligned container section.
// A reader holding only the prefix of a stream up to a level boundary can
// therefore materialize the coarse grid of that level: the points whose
// coordinates are all multiples of the level's stride, bit-identical to
// the same points of a full decode. LevelOffsets reports where those
// boundaries lie; DecodePayloadLevel decodes a prefix (or a whole payload)
// down to a requested level.

import (
	"errors"
	"fmt"

	"qoz/internal/container"
	"qoz/internal/interp"
	"qoz/internal/szstream"
)

// LevelOffset locates one progressive level boundary in an encoded
// payload: decoding the first Bytes bytes materializes the coarse grid of
// Level. Level maxLevel+1 is the seed stage (the lossless anchor grid);
// level 1 is the full field, whose Bytes equal the payload length.
type LevelOffset struct {
	Level int
	Bytes int
}

// CoarseDims returns the shape of the stride-aligned subgrid of dims that
// a progressive decode with the given stride materializes.
func CoarseDims(dims []int, stride int) []int { return interp.CoarseDims(dims, stride) }

// LevelOffsets returns the level boundaries of an encoded payload — a QoZ
// container or a float64 escape envelope wrapping one — ordered from the
// seed stage down to level 1. It returns (nil, nil) for payloads that
// carry no level segments (other codecs, or streams from before level
// segmentation), which simply cannot be decoded progressively.
func LevelOffsets(buf []byte) ([]LevelOffset, error) {
	if IsFloat64Stream(buf) {
		env, err := parseEnvelope(buf)
		if err != nil {
			return nil, err
		}
		base := len(buf) - len(env.inner)
		offs, err := LevelOffsets(env.inner)
		if err != nil || offs == nil {
			return offs, err
		}
		for i := range offs {
			offs[i].Bytes += base
		}
		return offs, nil
	}
	codecID, err := container.PeekCodec(buf)
	if err != nil {
		return nil, err
	}
	if codecID != container.CodecQoZ {
		return nil, nil
	}
	spans, err := container.ScanSections(buf)
	if err != nil {
		return nil, err
	}
	end := map[int]int{}
	maxL := 0
	for _, sp := range spans {
		if level, _, ok := szstream.SectionLevel(sp.ID); ok {
			end[level] = sp.End
			if level > maxL {
				maxL = level
			}
		}
	}
	if maxL == 0 {
		return nil, nil // legacy single-segment layout
	}
	offs := make([]LevelOffset, 0, maxL)
	last := 0
	for l := maxL; l >= 1; l-- {
		e, ok := end[l]
		if !ok {
			return nil, fmt.Errorf("qoz: stream misses level %d segment", l)
		}
		if e < last {
			return nil, errors.New("qoz: level segments out of stream order")
		}
		last = e
		offs = append(offs, LevelOffset{Level: l, Bytes: e})
	}
	return offs, nil
}
