package store

import (
	"context"
	"time"
)

// Stage identifies one timed stage of a region read's brick path. The
// store reports stage timings through a context-registered StageObserver
// rather than importing an observability package: the layering rule is
// that store stays dependency-free and the serving layer (which owns
// histograms and trace spans) decides what to do with the timings.
type Stage int

const (
	// StageFetch is the time spent reading one range of a read's fetch
	// plan — the compressed payloads or level prefixes of the bricks whose
	// spans it merges — from the backing source (remote range fetch or
	// local ReadAt). The bytes argument is the range's size.
	StageFetch Stage = iota
	// StageDecode is the time spent decompressing a brick payload. The
	// bytes argument is the decoded (uncompressed) size.
	StageDecode
	// StageCacheHit marks a brick served from the decoded-brick cache.
	// The duration is zero; the bytes argument is the decoded size served.
	StageCacheHit
	// StageStatPrune marks a brick a Query resolved from the statistics
	// index alone — conclusively inside or outside the predicate by the
	// stored error bound — without fetching or decoding its payload. The
	// duration is zero; the bytes argument is the compressed payload size
	// that was NOT read.
	StageStatPrune
)

// String names the stage the way metrics label it.
func (s Stage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageDecode:
		return "decode"
	case StageCacheHit:
		return "cache_hit"
	case StageStatPrune:
		return "stat_prune"
	default:
		return "unknown"
	}
}

// StageObserver receives one callback per stage during a region read:
// per fetched range, and per brick for the other stages. Brick work runs
// on concurrent workers, so the observer must be safe for concurrent use,
// and it runs on the read hot path, so it must be cheap (accumulate,
// don't log).
type StageObserver func(stage Stage, d time.Duration, bytes int64)

// stageObserverKey carries a StageObserver through a context.
type stageObserverKey struct{}

// WithStageObserver returns a context that makes ReadRegion (and the
// brick reads under it) report per-stage timings to fn. A nil fn returns
// ctx unchanged. Reads without an observer in their context skip all
// timing work.
func WithStageObserver(ctx context.Context, fn StageObserver) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, stageObserverKey{}, fn)
}

// stageObserverFrom extracts the context's observer, or nil.
func stageObserverFrom(ctx context.Context) StageObserver {
	fn, _ := ctx.Value(stageObserverKey{}).(StageObserver)
	return fn
}
