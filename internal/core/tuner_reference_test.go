package core

// The exhaustive tuner search as it stood before trials were shared: every
// (α, β) candidate and every Table I second point runs its own trial
// compression, and interpolator selection re-runs each level's winning
// pass to commit it. It decides exactly what tuner.selectMethods and
// tuner.tuneParams decide — TestTunerMatchesExhaustiveSearch pins that —
// and is not optimized.

import (
	"math"

	"qoz/internal/huffman"
	"qoz/internal/interp"
)

// referenceTune runs both searches on a fresh tuner and returns their
// decisions; for ModeFixed options it returns the configured (α, β).
func referenceTune(t *tuner, maxLevel int) (methods []interp.Method, alpha, beta float64) {
	methods = referenceSelectMethods(t, maxLevel)
	alpha, beta = t.o.Alpha, t.o.Beta
	if t.o.Mode != ModeFixed {
		alpha, beta = referenceTuneParams(t, methods)
	}
	return methods, alpha, beta
}

func referenceSelectMethods(t *tuner, maxLevel int) []interp.Method {
	cands := interp.Candidates(len(t.dims))
	if t.o.DisableSampling {
		cands = interp.PaperCandidates(len(t.dims))
	}
	global := t.selectGlobalMethod(cands)
	methods := make([]interp.Method, maxLevel)
	if t.o.DisableLevelSelect {
		for i := range methods {
			methods[i] = global
		}
		return methods
	}

	recons := t.perBlock()
	L := 0
	for i, b := range t.blocks {
		copy(recons[i], t.seeds[i])
		if l := t.blockMaxLevel(b); l > L {
			L = l
		}
	}
	if L > maxLevel {
		L = maxLevel
	}
	eb := t.o.ErrorBound
	const switchMargin = 0.98
	for level := L; level >= 1; level-- {
		best := global
		bestCost := math.Inf(1)
		globalCost := math.Inf(1)
		for _, m := range cands {
			q := t.quantizer(eb)
			for i, b := range t.blocks {
				if level > t.blockMaxLevel(b) {
					continue
				}
				copy(t.trial[i], recons[i])
				interp.LevelPassEncode(t.trial[i], b.Data, b.Dims, level, m, q)
			}
			if level == 1 {
				t.stats.Level1Sweeps++
			}
			if len(q.Bins) == 0 {
				continue
			}
			cost := float64(huffman.EstimateBits(q.Bins) + 32*len(q.Literals))
			if m == global {
				globalCost = cost
			}
			if cost < bestCost {
				bestCost = cost
				best = m
			}
		}
		if best != global && !(bestCost < switchMargin*globalCost) {
			best = global
		}
		methods[level-1] = best
		// Commit: run the winning pass again, on the state itself.
		q := t.quantizer(eb)
		for i, b := range t.blocks {
			if level > t.blockMaxLevel(b) {
				continue
			}
			interp.LevelPassEncode(recons[i], b.Data, b.Dims, level, best, q)
		}
		if level == 1 {
			t.stats.Level1Sweeps++
		}
	}
	for level := L + 1; level <= maxLevel; level++ {
		methods[level-1] = methods[L-1]
	}
	return methods
}

func referenceTuneParams(t *tuner, methods []interp.Method) (alpha, beta float64) {
	type cand struct{ a, b float64 }
	var cands []cand
	for _, a := range alphaCandidates {
		if a == 1 {
			cands = append(cands, cand{1, 1})
			continue
		}
		for _, b := range betaCandidates {
			cands = append(cands, cand{a, b})
		}
	}
	eb := t.o.ErrorBound
	evaluate := func(a, b, eb float64) evalResult {
		return t.runTrial(t.levelBounds(a, b, eb), methods)
	}
	const (
		crMargin    = 0.97
		crMarginAbs = 512
	)
	bestCand := cands[0]
	bestRes := evaluate(bestCand.a, bestCand.b, eb)
	baseBits := bestRes.bitrate * float64(t.totalPts)
	for _, c := range cands[1:] {
		res := evaluate(c.a, c.b, eb)
		if t.o.Mode == ModeCR {
			candBits := res.bitrate * float64(t.totalPts)
			if res.bitrate < bestRes.bitrate &&
				candBits < crMargin*baseBits && baseBits-candBits > crMarginAbs {
				bestCand, bestRes = c, res
			}
			continue
		}
		if referenceSecondBeatsFirst(bestRes, res, func(ebPrime float64) evalResult {
			return evaluate(c.a, c.b, ebPrime)
		}, eb) {
			bestCand, bestRes = c, res
		}
	}
	return bestCand.a, bestCand.b
}

// referenceSecondBeatsFirst is Table I with II's second point supplied by
// the caller.
func referenceSecondBeatsFirst(resI, resII evalResult, secondPoint func(ebPrime float64) evalResult, eb float64) bool {
	const tol = 1e-12
	bI, sI := resI.bitrate, resI.score
	bII, sII := resII.bitrate, resII.score
	switch {
	case bI <= bII+tol && sI >= sII-tol:
		return false
	case bI >= bII-tol && sI <= sII+tol:
		return true
	}
	ebPrime := 1.2 * eb
	if bI > bII {
		ebPrime = 0.8 * eb
	}
	resII2 := secondPoint(ebPrime)
	if math.Abs(resII2.bitrate-bII) < tol {
		return bII < bI
	}
	slope := (resII2.score - sII) / (resII2.bitrate - bII)
	return sI < sII+slope*(bI-bII)
}
