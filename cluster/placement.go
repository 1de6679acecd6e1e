package cluster

import (
	"fmt"
	"sort"
)

// Placement deterministically assigns brick indices to shards by
// rendezvous (highest-random-weight) hashing. Every party that knows the
// same shard list and field name computes the same owner for every brick —
// a pure function, no coordination service, no stored ring. Rendezvous
// hashing also gives a full preference order per brick (shards sorted by
// weight), which doubles as the failover order: when the owner is down,
// the next-ranked shard is the same shard every gateway would pick, so
// retried bricks still concentrate on one alternate cache instead of
// spraying across the fleet. Adding or removing one shard moves only the
// bricks that shard gains or loses (~1/n of them); every other brick keeps
// its owner, and its shard-side decoded-brick cache stays hot.
//
// A Placement is immutable and safe for concurrent use.
type Placement struct {
	shards []string
}

// NewPlacement builds a placement over the given shard names (for HTTP
// serving, their base URLs). Order does not matter — weights depend only
// on the name strings — but names must be unique and non-empty.
func NewPlacement(shards []string) (*Placement, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: placement needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("cluster: empty shard name")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", s)
		}
		seen[s] = true
	}
	return &Placement{shards: append([]string(nil), shards...)}, nil
}

// Shards returns the shard names the placement spans, in construction
// order.
func (p *Placement) Shards() []string { return append([]string(nil), p.shards...) }

// The two orders of a two-shard placement.
var rank01, rank10 = []int{0, 1}, []int{1, 0}

// weight is the rendezvous score of (shard, field, brick): a 64-bit
// FNV-1a over the three, so it depends on nothing but the names and the
// index. The field name participates so two fields with identical grids
// still spread differently — one hot field cannot pin the same shard
// order as every other field.
//
// The hash is spelled out rather than built on hash/fnv: a fan-out plan
// weighs every shard for every brick, and the hash.Hash64 behind an
// interface is a heap object per weight.
func weight(shard, field string, brick int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(shard); i++ {
		h = (h ^ uint64(shard[i])) * prime64
	}
	h *= prime64 // the 0 byte separating shard from field
	for i := 0; i < len(field); i++ {
		h = (h ^ uint64(field[i])) * prime64
	}
	for i, b := 0, uint64(brick); i < 8; i, b = i+1, b>>8 { // little-endian
		h = (h ^ (b & 0xff)) * prime64
	}
	return h
}

// Owner returns the index (into Shards) of the shard that owns brick
// `brick` of the named field.
func (p *Placement) Owner(field string, brick int) int {
	best, bestW := 0, weight(p.shards[0], field, brick)
	for i := 1; i < len(p.shards); i++ {
		if w := weight(p.shards[i], field, brick); w > bestW || (w == bestW && p.shards[i] < p.shards[best]) {
			best, bestW = i, w
		}
	}
	return best
}

// Rank returns every shard index ordered by preference for the given
// brick: Rank(...)[0] is the owner, and each later entry is the next
// shard a gateway should fail over to. Ties break on the shard name so
// the order is total and identical everywhere. The result is read-only: a
// two-shard placement (one comparison, no sort) hands every caller one of
// the same two slices.
func (p *Placement) Rank(field string, brick int) []int {
	if len(p.shards) == 2 {
		w0, w1 := weight(p.shards[0], field, brick), weight(p.shards[1], field, brick)
		if w0 > w1 || (w0 == w1 && p.shards[0] < p.shards[1]) {
			return rank01
		}
		return rank10
	}
	type sw struct {
		i int
		w uint64
	}
	ws := make([]sw, len(p.shards))
	for i, s := range p.shards {
		ws[i] = sw{i, weight(s, field, brick)}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return p.shards[ws[a].i] < p.shards[ws[b].i]
	})
	out := make([]int, len(ws))
	for i, e := range ws {
		out[i] = e.i
	}
	return out
}
