// Package cluster turns single-process qozd serving into sharded,
// fanned-out serving. It holds the pieces that are useful on both sides
// of the gateway/shard split and deliberately contains no HTTP handlers —
// cmd/qozd wires these into endpoints:
//
//   - Placement: deterministic rendezvous (highest-random-weight) hashing
//     of brick indices onto shard names. It is a pure function of the
//     field's manifest (extents + brick shape, via qoz/store's exported
//     brick-geometry helpers) and the shard list, so a gateway and its
//     shards agree on who owns which bricks with no coordination service.
//   - Client: the fan-out client. It discovers the fields a shard fleet
//     serves (admitting only those whose reported dims and brick shape
//     form a brick grid), splits a region read of any number of boxes, or
//     a pushdown query, into sub-regions along brick-ownership boundaries,
//     and runs every one on a single engine (fanOut): the sub-regions
//     bound for one shard travel together — a read's in multi-box round
//     trips, a query's one sub-box per sub-query — with per-request
//     context propagation, a failed round trip's sub-regions fail over in
//     rounds to their next-ranked shards, and every exchange is accounted
//     and traced the same way. Every gateway→shard exchange — catalog
//     listing, readiness probe, region round trip, sub-query — is one
//     request function (Client.get) that verifies the answer against the
//     catalog's (manifest CRC, generation) pair where it carries data, so
//     a stitched or merged response can never mix store generations. Read
//     bodies are scattered into one row-major byte buffer, each box into
//     its own slot; sub-query answers are checked against their request
//     and sub-box before they merge. Plan and scatter run on
//     internal/grid's piece iterator, level grid and run walker: the
//     arithmetic the shards' stores read with, not a copy of it.
//   - Flight: request-layer single-flight. A thundering herd of identical
//     region requests decodes (or fans out) once; followers share the
//     leader's result. The leader's work is cancelled only when every
//     coalesced caller has gone away, and a result that owns pooled memory
//     is released after the last caller is done with it.
//   - Limiter: per-tenant token buckets for 429 + Retry-After rate
//     limiting layered on bearer-token auth.
//
// The protocol between gateway and shards is qozd's ordinary public API —
// GET /v1/fields for discovery, GET /v1/fields/{name}/region for region
// round trips (its multi-box form: repeated lo=/hi= pairs, the boxes' raw
// bodies concatenated in request order) and .../query for sub-queries — so
// any mix of gateways, plain clients, and shards interoperates, and a shard
// is just a normal qozd process.
package cluster
