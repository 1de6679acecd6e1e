package core

import (
	"math"
	"slices"

	"qoz/internal/container"
	"qoz/internal/huffman"
	"qoz/internal/interp"
	"qoz/internal/pool"
	"qoz/internal/quant"
	"qoz/internal/sampling"
	"qoz/metrics"
)

// tuner holds the sampled blocks and runs the two online optimizations:
// level-adapted interpolator selection (paper Algorithm 1) and
// quality-metric-oriented (α, β) auto-tuning (paper §VI-C, Table I).
//
// Every trial compression starts from the same per-block seed and needs
// the same scratch, so both are set up once and reused by all
// (interpolator, α, β) candidates: seeds holds each block's seeded
// reconstruction, and each worker a scratch to run its trials in. The
// embedded scratch is the calling goroutine's; with o.Workers > 1 the
// independent trials of a stage run concurrently, one scratch per extra
// worker, and are compared afterwards in the serial order.
type tuner struct {
	dims   []int
	o      Options
	blocks []sampling.Block
	seeds  [][]float32
	scratch
	more []*scratch // workers 1.. ; made on first use
	// methods is selectMethods' answer, the interpolators every (α, β)
	// trial runs with; memo holds the trials run with them so far.
	methods     []interp.Method
	memo        []memoEntry
	blockAnchor int     // anchor stride inside a sample block (0 = global)
	topLevel    int     // highest blockMaxLevel over the blocks
	nAnchors    int     // anchor points over all blocks
	vrange      float64 // of the whole input; only ModePSNR's score reads it
	totalPts    int
	stats       TunerStats
}

// TunerStats counts the tuner's work in units that repeat exactly from run
// to run, so a test can pin them.
type TunerStats struct {
	// Trials is the number of sampled trial compressions the (α, β) search
	// ran: one per distinct sequence of level bounds, however many
	// candidates share it.
	Trials int
	// Level1Sweeps is the number of times the finest level was swept over
	// the sample blocks, by any stage — the tuner's dominant cost, since
	// level 1 holds 7/8 of a 3-D block's points.
	Level1Sweeps int
}

func newTuner(data []float32, dims []int, o Options) *tuner {
	t := &tuner{dims: dims, o: o}
	if o.Mode == ModePSNR {
		t.vrange = metrics.ValueRange(data)
	}
	// Blocks span SampleBlock+1 points so that they carry the anchor
	// points on *both* ends of each anchor cell; a block holding only its
	// origin anchor would make high interpolation levels look far worse
	// in-sample than they are on the full grid (where every cell is
	// closed by anchors), badly biasing the (α, β) search.
	edge := o.SampleBlock + 1
	if o.DisableSampling {
		// SZ3-style fallback: a single centered block of SZ3's trial size.
		t.blocks = []sampling.Block{sampling.CenterBlock(data, dims, min(edge, 33))}
	} else {
		plan := sampling.PlanForDims(edge, dims, o.SampleRate)
		t.blocks = plan.Extract(data, dims)
	}
	for _, b := range t.blocks {
		t.totalPts += len(b.Data)
	}
	if o.DisableAnchors {
		t.blockAnchor = 0
	} else {
		t.blockAnchor = floorPow2(min(o.SampleBlock, o.AnchorStride))
		if t.blockAnchor < 2 {
			t.blockAnchor = 2
		}
	}
	for _, b := range t.blocks {
		t.topLevel = max(t.topLevel, t.blockMaxLevel(b))
	}

	// Seeds: anchors copied losslessly, or the origin committed with zero
	// prediction in the anchor-free ablation; zero everywhere else.
	t.seeds = t.perBlock()
	for i, b := range t.blocks {
		if t.blockAnchor > 0 {
			idxs := interp.AnchorIndices(b.Dims, t.blockAnchor)
			t.nAnchors += len(idxs)
			for _, idx := range idxs {
				t.seeds[i][idx] = b.Data[idx]
			}
		} else {
			r, _ := quant.EstimateOnly(b.Data[0], 0, t.o.ErrorBound, quant.DefaultRadius)
			t.seeds[i][0] = r
		}
	}
	t.scratch = t.newScratch()
	return t
}

// scratch is what one worker runs trials in: trial, a buffer per block a
// pass runs in, and bins, the symbol buffer of its live trial quantizer.
type scratch struct {
	trial [][]float32
	bins  []uint32
}

func (t *tuner) newScratch() scratch {
	return scratch{trial: t.perBlock(), bins: make([]uint32, 0, t.totalPts)}
}

// fork runs do(w, s, i) for i in 0..n-1 on up to o.Workers goroutines, w
// numbering the running worker and s being its scratch; with one worker it
// is a plain loop on the tuner's own. Results are do's to store by i:
// whatever compares them runs afterwards, in i order.
func (t *tuner) fork(n int, do func(w int, s *scratch, i int)) {
	workers := max(1, min(t.o.Workers, n))
	for len(t.more) < workers-1 {
		s := t.newScratch()
		t.more = append(t.more, &s)
	}
	pool.Fork(n, workers, func(w, i int) { do(w, t.worker(w), i) })
}

// worker returns worker w's scratch.
func (t *tuner) worker(w int) *scratch {
	if w == 0 {
		return &t.scratch
	}
	return t.more[w-1]
}

// perBlock returns one zeroed buffer per block, carved from a single
// allocation.
func (t *tuner) perBlock() [][]float32 {
	backing := make([]float32, t.totalPts)
	out := make([][]float32, len(t.blocks))
	for i, b := range t.blocks {
		out[i] = backing[:len(b.Data):len(b.Data)]
		backing = backing[len(b.Data):]
	}
	return out
}

// quantizer returns a trial quantizer writing its symbols into the
// scratch's buffer; only one is live per scratch at a time.
func (s *scratch) quantizer(eb float64) *quant.Quantizer {
	q := quant.New(eb, 0)
	q.Bins = s.bins[:0]
	return q
}

// blockMaxLevel returns the top interpolation level for one sample block
// (L = log2 min(b, s) in Algorithm 1).
func (t *tuner) blockMaxLevel(b sampling.Block) int {
	if t.blockAnchor > 0 {
		return interp.MaxLevelAnchored(t.blockAnchor)
	}
	return interp.MaxLevelGlobal(b.Dims)
}

// levelBounds returns the error bound of every level a trial sweeps under
// (α, β): index l-1 holds e_l for l = 1 … topLevel.
func (t *tuner) levelBounds(alpha, beta, eb float64) []float64 {
	bounds := make([]float64, t.topLevel)
	for i := range bounds {
		bounds[i] = interp.LevelBound(eb, alpha, beta, i+1)
	}
	return bounds
}

// trialEncode compresses every sample block from its seed into s.trial
// under one configuration, appending to q's streams. bounds comes from
// levelBounds. It sweeps level 1 once; counting that is the caller's.
func (t *tuner) trialEncode(s *scratch, q *quant.Quantizer, bounds []float64, methods []interp.Method) {
	for i, b := range t.blocks {
		recon := s.trial[i]
		copy(recon, t.seeds[i])
		for level := t.blockMaxLevel(b); level >= 1; level-- {
			q.SetBound(bounds[level-1])
			interp.LevelPassEncode(recon, b.Data, b.Dims, level, methodFor(methods, level), q)
		}
	}
}

// selectMethods implements Algorithm 1: per-level best-fit interpolator
// selection by trial compression over the sampled blocks, comparing mean
// absolute (L1) prediction errors. It returns one method per level
// 1..maxLevel (levels above the sampled top level reuse its choice), and
// keeps them as the methods evaluate runs with.
func (t *tuner) selectMethods(maxLevel int) []interp.Method {
	t.methods = t.chooseMethods(maxLevel)
	t.memo = t.memo[:0]
	return t.methods
}

func (t *tuner) chooseMethods(maxLevel int) []interp.Method {
	cands := interp.Candidates(len(t.dims))
	if t.o.DisableSampling {
		// SZ3-style configuration: restrict to the paper's candidate set.
		cands = interp.PaperCandidates(len(t.dims))
	}
	if t.o.DisableLevelSelect {
		best := t.selectGlobalMethod(cands)
		methods := make([]interp.Method, maxLevel)
		for i := range methods {
			methods[i] = best
		}
		return methods
	}

	// A dataset-level best method serves as the per-level default: the
	// sampled L1 differences between candidates are often within noise,
	// and deviating per level pays off only on a decisive margin (the
	// hysteresis keeps selection stable on near-isotropic data).
	global := t.selectGlobalMethod(cands)

	// recons is the per-block reconstruction state the levels build up.
	// A level's candidate passes run concurrently, each in its worker's
	// trial, and the choice is then made in candidate order. The default
	// goes first: a challenger replaces it only by beating it decisively,
	// and the cheapest decisive challenger wins. So the choice is the
	// default or the cheapest challenger, earliest on ties, and each
	// worker keeps the pass that could be either — kept[w] holds it,
	// exchanged for the worker's trial whenever it changes — so the chosen
	// pass becomes the next level's state without being run again. The
	// worker that ran the default knows its cost and keeps exactly what
	// the serial loop would; the others keep their cheapest challenger.
	recons := t.perBlock()
	for i := range t.blocks {
		copy(recons[i], t.seeds[i])
	}
	order := append([]interp.Method{global}, cands...)
	workers := max(1, min(t.o.Workers, len(order)))
	kept := make([][][]float32, workers)
	for w := range kept {
		kept[w] = t.perBlock()
	}
	type keeper struct {
		n                    int     // candidate whose pass kept[w] holds; -1 for none
		globalCost, bestCost float64 // as the serial loop tracks them
	}
	keepers := make([]keeper, workers)
	costs := make([]float64, len(order))
	L := min(t.topLevel, maxLevel)
	methods := make([]interp.Method, maxLevel)
	eb := t.o.ErrorBound
	const switchMargin = 0.98 // challenger must beat the default by >2%
	for level := L; level >= 1; level-- {
		for w := range keepers {
			keepers[w] = keeper{n: -1, globalCost: math.Inf(1), bestCost: math.Inf(1)}
		}
		t.fork(len(order), func(w int, s *scratch, n int) {
			m := order[n]
			costs[n] = math.Inf(1)
			if n > 0 && m == global {
				return
			}
			q := s.quantizer(eb)
			for i, b := range t.blocks {
				if level > t.blockMaxLevel(b) {
					continue
				}
				copy(s.trial[i], recons[i])
				interp.LevelPassEncode(s.trial[i], b.Data, b.Dims, level, m, q)
			}
			if len(q.Bins) == 0 {
				return
			}
			// Cost is the level's entropy-coded size estimate: unlike the
			// paper's mean-L1 proxy it also prices the fat error tails a
			// higher-order interpolator produces on spiky data. The pure
			// entropy estimate (no DEFLATE) is used here because per-level
			// sample streams are small and DEFLATE measurements on tiny
			// streams are dominated by framing noise.
			cost := float64(huffman.EstimateBits(q.Bins) + 32*len(q.Literals))
			costs[n] = cost
			k := &keepers[w]
			switch {
			case n == 0:
				k.globalCost = cost
			case cost < k.bestCost && cost < switchMargin*k.globalCost:
				k.bestCost = cost
			default:
				return
			}
			k.n = n
			s.trial, kept[w] = kept[w], s.trial
		})
		best, chosen := global, 0
		bestCost := math.Inf(1) // of the cheapest decisive challenger
		globalCost := costs[0]
		for n := 1; n < len(order); n++ {
			if order[n] == global {
				continue
			}
			if level == 1 {
				t.stats.Level1Sweeps++
			}
			if costs[n] < bestCost && costs[n] < switchMargin*globalCost {
				best, bestCost, chosen = order[n], costs[n], n
			}
		}
		if level == 1 {
			t.stats.Level1Sweeps++ // the default's pass
		}
		methods[level-1] = best
		if level == 1 || math.IsInf(globalCost, 1) {
			// Nothing predicts from the finest level, and a level with no
			// points to code kept no pass: the state stands.
			continue
		}
		// The chosen pass becomes the per-block state, so the next (lower)
		// level predicts from realistic reconstructions.
		w := slices.IndexFunc(keepers, func(k keeper) bool { return k.n == chosen })
		for i, b := range t.blocks {
			if level <= t.blockMaxLevel(b) {
				recons[i], kept[w][i] = kept[w][i], recons[i]
			}
		}
	}
	// Levels above the sampled top reuse its interpolator (Algorithm 1's
	// rule for anchor strides larger than the sample block).
	for level := L + 1; level <= maxLevel; level++ {
		methods[level-1] = methods[L-1]
	}
	return methods
}

// selectGlobalMethod picks a single interpolator for all levels by whole-
// block trial compression (the "+S without LIS" ablation configuration).
// The candidates' trials run concurrently; the first cheapest wins.
func (t *tuner) selectGlobalMethod(cands []interp.Method) interp.Method {
	costs := make([]float64, len(cands))
	t.fork(len(cands), func(_ int, s *scratch, i int) { costs[i] = t.globalCost(s, cands[i]) })
	t.stats.Level1Sweeps += len(cands)
	best := cands[0]
	bestCost := math.Inf(1)
	for i, cost := range costs {
		if cost < bestCost {
			bestCost = cost
			best = cands[i]
		}
	}
	return best
}

// globalCost is one candidate's whole-block trial cost for
// selectGlobalMethod, run in s: +Inf when the blocks code no symbol.
func (t *tuner) globalCost(s *scratch, m interp.Method) float64 {
	eb := t.o.ErrorBound
	q := s.quantizer(eb)
	if t.o.DisableSampling {
		// The "+S" ablation component bundles the improved uniform
		// sampling *and* the bit-cost criterion; with sampling
		// disabled we reproduce SZ3's selection: mean L1 prediction
		// error on a single centered block.
		var l1 float64
		for i, b := range t.blocks {
			recon := s.trial[i]
			copy(recon, t.seeds[i])
			for level := t.blockMaxLevel(b); level >= 1; level-- {
				l1 = interp.LevelPassEncodeL1(recon, b.Data, b.Dims, level, m, q, l1)
			}
		}
		count := len(q.Bins)
		if count == 0 {
			return math.Inf(1)
		}
		return l1 / float64(count)
	}
	t.trialEncode(s, q, t.levelBounds(1, 1, eb), []interp.Method{m})
	if len(q.Bins) == 0 {
		return math.Inf(1)
	}
	return float64(huffman.EstimateBits(q.Bins) + 32*len(q.Literals))
}

// evalResult is one sampled trial-compression outcome: estimated bits per
// point and the mode's quality score (higher is always better; AC is
// negated absolute autocorrelation).
type evalResult struct {
	bitrate float64
	score   float64
}

// alphaCandidates / betaCandidates narrow the search space per §VI-C1.
var (
	alphaCandidates = []float64{1, 1.25, 1.5, 1.75, 2}
	betaCandidates  = []float64{1.5, 2, 3, 4}
)

// tuneParams selects (α, β) online for the configured quality metric,
// with the interpolators selectMethods chose.
func (t *tuner) tuneParams() (alpha, beta float64) {
	type cand struct{ a, b float64 }
	var cands []cand
	for _, a := range alphaCandidates {
		if a == 1 {
			// β is irrelevant when α = 1.
			cands = append(cands, cand{1, 1})
			continue
		}
		for _, b := range betaCandidates {
			cands = append(cands, cand{a, b})
		}
	}

	eb := t.o.ErrorBound
	// The (1, 1) candidate is the safe default (uniform level bounds). In
	// CR mode a challenger must beat it by a decisive sampled margin, both
	// relative (estimates carry a few percent of noise) and absolute (in
	// the very-high-ratio regime the whole sampled stream is tens of
	// bytes, so small differences are measurement noise — and the paper's
	// own Fig. 13 shows α=1 is the right choice at low bit-rates anyway).
	const (
		crMargin    = 0.97
		crMarginAbs = 512 // sampled bits a challenger must save at least
	)
	// Candidates whose level bounds coincide share one trial (evaluate's
	// memo), but each is still compared, in this order: Table I's
	// comparison is not transitive, so a candidate equal to one that lost
	// to an earlier incumbent may still beat the current one. Every
	// comparison looks up its candidate at eb, so those trials are run
	// first, concurrently when workers allow; Table I's second points
	// stay lazy.
	var todo [][]float64
	for _, c := range cands {
		b := t.levelBounds(c.a, c.b, eb)
		if _, ok := t.memoized(b); !ok && !slices.ContainsFunc(todo, func(o []float64) bool { return slices.Equal(o, b) }) {
			todo = append(todo, b)
		}
	}
	res := make([]evalResult, len(todo))
	t.fork(len(todo), func(_ int, s *scratch, i int) { res[i] = t.measure(s, todo[i], t.methods) })
	for i, b := range todo {
		t.stats.Trials++
		t.stats.Level1Sweeps++
		t.memo = append(t.memo, memoEntry{b, res[i]})
	}
	bestCand := cands[0]
	bestRes := t.evaluate(bestCand.a, bestCand.b, eb)
	baseBits := bestRes.bitrate * float64(t.totalPts)
	for _, c := range cands[1:] {
		res := t.evaluate(c.a, c.b, eb)
		if t.o.Mode == ModeCR {
			candBits := res.bitrate * float64(t.totalPts)
			if res.bitrate < bestRes.bitrate &&
				candBits < crMargin*baseBits && baseBits-candBits > crMarginAbs {
				bestCand, bestRes = c, res
			}
			continue
		}
		if t.secondBeatsFirst(bestRes, res, c.a, c.b, eb) {
			bestCand, bestRes = c, res
		}
	}
	return bestCand.a, bestCand.b
}

// secondBeatsFirst implements the comparison of paper Table I between the
// incumbent solution I and challenger II (the challenger's (α, β) is needed
// to run its extra trial compression in the sophisticated cases).
func (t *tuner) secondBeatsFirst(resI, resII evalResult, alphaII, betaII, eb float64) bool {
	const tol = 1e-12
	bI, sI := resI.bitrate, resI.score
	bII, sII := resII.bitrate, resII.score
	switch {
	case bI <= bII+tol && sI >= sII-tol:
		return false // case 1: I dominates
	case bI >= bII-tol && sI <= sII+tol:
		return true // case 2: II dominates
	}
	// Sophisticated cases 3 and 4: get a second point on II's
	// rate-distortion curve and test (B_I, S_I) against the line.
	var ebPrime float64
	if bI > bII { // case 3: I pays more bits for more quality
		ebPrime = 0.8 * eb
	} else { // case 4
		ebPrime = 1.2 * eb
	}
	resII2 := t.evaluate(alphaII, betaII, ebPrime)
	if math.Abs(resII2.bitrate-bII) < tol {
		// Degenerate line; fall back to preferring the lower bit-rate.
		return bII < bI
	}
	slope := (resII2.score - sII) / (resII2.bitrate - bII)
	lineAtI := sII + slope*(bI-bII)
	// If I sits below II's rate-distortion line, II is better.
	return sI < lineAtI
}

// memoEntry is one trial evaluate has run: the level bounds it swept with
// and what it measured.
type memoEntry struct {
	bounds []float64
	res    evalResult
}

// evaluate returns the estimated bit-rate and quality score of a sampled
// trial compression with the given parameters. The level bounds are all of
// (α, β, eb) a trial sees, so it runs once per distinct sequence of them:
// β caps most of the candidate grid to the same few sequences, and Table
// I's second points and EstimateQuality's closing call repeat earlier ones.
func (t *tuner) evaluate(alpha, beta, eb float64) evalResult {
	bounds := t.levelBounds(alpha, beta, eb)
	if res, ok := t.memoized(bounds); ok {
		return res
	}
	res := t.runTrial(bounds, t.methods)
	t.memo = append(t.memo, memoEntry{bounds, res})
	return res
}

// memoized returns the memo's trial for a sequence of level bounds.
func (t *tuner) memoized(bounds []float64) (evalResult, bool) {
	for _, e := range t.memo {
		if slices.Equal(e.bounds, bounds) {
			return e.res, true
		}
	}
	return evalResult{}, false
}

// runTrial is one sampled trial compression on the caller's scratch,
// measured and counted.
func (t *tuner) runTrial(bounds []float64, methods []interp.Method) evalResult {
	t.stats.Trials++
	t.stats.Level1Sweeps++
	return t.measure(&t.scratch, bounds, methods)
}

// measure runs one sampled trial compression in s and measures it.
func (t *tuner) measure(s *scratch, bounds []float64, methods []interp.Method) evalResult {
	q := s.quantizer(bounds[0])
	t.trialEncode(s, q, bounds, methods)
	bits := encodedBits(q.Bins) + 32*(len(q.Literals)+t.nAnchors)
	return evalResult{
		bitrate: float64(bits) / float64(t.totalPts),
		score:   t.score(s.trial),
	}
}

// score computes the tuning metric over the sampled blocks (higher is
// better for every mode; see evalResult).
func (t *tuner) score(recons [][]float32) float64 {
	switch t.o.Mode {
	case ModePSNR:
		var se float64
		for i, b := range t.blocks {
			for j := range b.Data {
				d := float64(b.Data[j]) - float64(recons[i][j])
				se += d * d
			}
		}
		mse := se / float64(t.totalPts)
		if mse == 0 || t.vrange == 0 {
			return math.Inf(1)
		}
		return 20 * math.Log10(t.vrange/math.Sqrt(mse))
	case ModeSSIM:
		var sum float64
		var n int
		for i, b := range t.blocks {
			s, err := metrics.SSIM(b.Data, recons[i], b.Dims)
			if err == nil {
				sum += s
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	case ModeAC:
		orig := make([]float32, 0, t.totalPts)
		rec := make([]float32, 0, t.totalPts)
		for i, b := range t.blocks {
			orig = append(orig, b.Data...)
			rec = append(rec, recons[i]...)
		}
		ac, err := metrics.AutoCorrelation(orig, rec, 1)
		if err != nil {
			return 0
		}
		return -math.Abs(ac)
	default:
		return 0
	}
}

// encodedBits measures the sampled bin stream through the real entropy
// pipeline (canonical Huffman + DEFLATE), which tracks the final stream
// size far better than a pure entropy estimate in the high-ratio regime
// where the dictionary stage does much of the work.
func encodedBits(bins []uint32) int {
	enc := huffman.Encode(bins)
	return 8 * min(len(enc), container.DeflatedLen(enc))
}
