package store

// Progressive (multi-resolution) region reads. A level-L read returns the
// points of the requested box whose global coordinates are all multiples
// of stride 2^(L-1), bit-identical to the same points of a full-resolution
// read. Each brick whose manifest entry carries a level table fetches and
// decodes only the payload prefix up to the level boundary — strictly
// fewer bytes than a full read; bricks without a table (other codecs,
// stores written before tables were recorded) fall back to a full decode
// followed by stride sampling, so the result is the same either way.

import (
	"context"
	"fmt"

	"qoz"
	"qoz/internal/grid"
)

// MaxReadLevel bounds the level a region read accepts; stride 2^(L-1)
// already exceeds every admissible extent well before it.
const MaxReadLevel = 30

// LevelEntry describes one progressive level boundary of a brick payload:
// decoding the first Bytes bytes materializes the coarse grid of Level.
type LevelEntry struct {
	Level int   `json:"level"`
	Bytes int64 `json:"bytes"`
}

// FormatVersion returns the store's on-disk format version: 3, the
// generation journal, for every store this package writes; 1, 2, 4 or 5
// for a legacy index store written before PR 22.
func (s *Store) FormatVersion() int { return int(s.man.Load().hdr.version) }

// BrickLevels returns brick i's progressive level table — seed stage
// first, level 1 (the whole payload) last — or nil when the store or the
// brick's codec does not record one.
func (s *Store) BrickLevels(i int) []LevelEntry {
	m := s.man.Load()
	if i < 0 || i >= len(m.bricks) || len(m.bricks[i].levels) == 0 {
		return nil
	}
	spans := m.bricks[i].levels
	out := make([]LevelEntry, len(spans))
	for j, sp := range spans {
		out[j] = LevelEntry{Level: len(spans) - j, Bytes: sp.bytes}
	}
	return out
}

// ReadRegionLevel is ReadRegionLevelT for a float32 store.
func (s *Store) ReadRegionLevel(ctx context.Context, lo, hi []int, level int) ([]float32, []int, error) {
	return ReadRegionLevelT[float32](ctx, s, lo, hi, level)
}

// ReadRegionLevelT decodes the level-L coarse grid of the half-open box
// [lo, hi) as samples of type T: every point of the box whose global
// coordinates are all multiples of 2^(L-1), row-major over the returned
// coarse dims. Level 1 is a full-resolution ReadRegionT. The values —
// escaped double-precision points that land on the coarse grid included —
// are bit-identical to the same points of a full read; where the manifest
// records level tables (a progressive codec) only the level-prefix bytes of
// each brick are fetched and decoded.
func ReadRegionLevelT[T qoz.Float](ctx context.Context, s *Store, lo, hi []int, level int) ([]T, []int, error) {
	m := s.man.Load()
	if err := checkRead[T](m, lo, hi); err != nil {
		return nil, nil, err
	}
	g, err := levelGrid(lo, hi, level)
	if err != nil {
		return nil, nil, err
	}
	out := make([]T, g.N)
	if err := fillBoxes(ctx, s, m, out, []Box{{lo, hi}}, level); err != nil {
		return nil, nil, err
	}
	return out, append([]int(nil), g.Dims[:len(lo)]...), nil
}

// levelGrid returns the level-L grid of the box [lo, hi). A level outside
// 1..MaxReadLevel, or a box no grid point falls in, is an error.
func levelGrid(lo, hi []int, level int) (grid.LevelGrid, error) {
	if level < 1 || level > MaxReadLevel {
		return grid.LevelGrid{}, fmt.Errorf("store: level %d outside 1..%d", level, MaxReadLevel)
	}
	g, ok := grid.LevelOf(lo, hi, 1<<(level-1))
	if !ok {
		return g, fmt.Errorf("store: region [%v,%v) holds no level-%d points (stride %d)", lo, hi, level, 1<<(level-1))
	}
	return g, nil
}
