package core

import (
	"math"
	"slices"
	"testing"

	"qoz/datagen"
	"qoz/internal/interp"
	"qoz/internal/sampling"
	"qoz/metrics"
)

// stubTuner builds a tuner whose evaluate() is driven by a fixed second
// trial point, letting us exercise the Table I comparison cases without
// running real compressions. We do that by constructing a tiny dataset
// whose evaluation is deterministic, then calling secondBeatsFirst with
// synthetic results; the sophisticated cases run a real (cheap) trial, so
// we verify them through the dominance cases plus geometric checks on the
// line test applied to real data.
func mkTuner(mode Mode) (*tuner, []interp.Method) {
	ds := datagen.CESMATM(64, 96)
	o := Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data), Mode: mode}.withDefaults(2)
	t := newTuner(ds.Data, ds.Dims, o)
	methods := t.selectMethods(o.pyramid(ds.Dims).Top())
	return t, methods
}

func TestTableICase1Dominance(t *testing.T) {
	tn, _ := mkTuner(ModePSNR)
	I := evalResult{bitrate: 1.0, score: 60}
	II := evalResult{bitrate: 1.5, score: 55} // worse on both axes
	if tn.secondBeatsFirst(I, II, 1, 1, tn.o.ErrorBound) {
		t.Fatal("dominated challenger won")
	}
}

func TestTableICase2Dominance(t *testing.T) {
	tn, _ := mkTuner(ModePSNR)
	I := evalResult{bitrate: 1.5, score: 55}
	II := evalResult{bitrate: 1.0, score: 60} // better on both axes
	if !tn.secondBeatsFirst(I, II, 1, 1, tn.o.ErrorBound) {
		t.Fatal("dominating challenger lost")
	}
}

func TestTableITieGoesToIncumbent(t *testing.T) {
	tn, _ := mkTuner(ModePSNR)
	r := evalResult{bitrate: 1.0, score: 60}
	if tn.secondBeatsFirst(r, r, 1, 1, tn.o.ErrorBound) {
		t.Fatal("identical results should keep the incumbent")
	}
}

func TestTableISophisticatedCasesRun(t *testing.T) {
	// Cases 3 and 4 trigger a real extra trial compression; here we only
	// require a deterministic, panic-free decision in both directions.
	tn, _ := mkTuner(ModePSNR)
	e := tn.o.ErrorBound
	case3I := evalResult{bitrate: 2.0, score: 80} // I pays more bits, more quality
	case3II := tn.evaluate(1.5, 3, e)
	_ = tn.secondBeatsFirst(case3I, case3II, 1.5, 3, e)

	case4I := evalResult{bitrate: 0.01, score: 10} // I cheap and bad
	_ = tn.secondBeatsFirst(case4I, case3II, 1.5, 3, e)
}

func TestEvaluateMonotoneInBound(t *testing.T) {
	// Tighter bound must not decrease estimated PSNR, and must not
	// decrease estimated bit-rate.
	tn, _ := mkTuner(ModePSNR)
	e := tn.o.ErrorBound
	loose := tn.evaluate(1, 1, e)
	tight := tn.evaluate(1, 1, e/10)
	if tight.score < loose.score {
		t.Fatalf("tighter bound lowered PSNR estimate: %v -> %v", loose.score, tight.score)
	}
	if tight.bitrate < loose.bitrate {
		t.Fatalf("tighter bound lowered bit-rate estimate: %v -> %v", loose.bitrate, tight.bitrate)
	}
}

func TestScoreDirections(t *testing.T) {
	// For every mode, the score of a perfect reconstruction must be at
	// least that of a noisy one.
	for _, mode := range []Mode{ModePSNR, ModeSSIM, ModeAC} {
		tn, _ := mkTuner(mode)
		perfect := make([][]float32, len(tn.blocks))
		noisy := make([][]float32, len(tn.blocks))
		for i, b := range tn.blocks {
			perfect[i] = append([]float32(nil), b.Data...)
			noisy[i] = make([]float32, len(b.Data))
			for j, v := range b.Data {
				// Correlated noise: hurts PSNR, SSIM, and AC alike.
				noisy[i][j] = v + float32(0.05*math.Sin(float64(j)))*float32(metrics.ValueRange(b.Data)+1e-9)
			}
		}
		sPerfect := tn.score(perfect)
		sNoisy := tn.score(noisy)
		if sNoisy > sPerfect {
			t.Fatalf("mode %v: noisy score %v beats perfect %v", mode, sNoisy, sPerfect)
		}
	}
}

func TestSelectMethodsLength(t *testing.T) {
	tn, methods := mkTuner(ModeCR)
	want := interp.MaxLevelAnchored(tn.o.AnchorStride)
	if len(methods) != want {
		t.Fatalf("methods for %d levels, want %d", len(methods), want)
	}
}

func TestCenterBlockClipped(t *testing.T) {
	data := make([]float32, 10*10)
	b := sampling.CenterBlock(data, []int{10, 10}, 64)
	if b.Dims[0] != 10 || b.Dims[1] != 10 {
		t.Fatalf("clipped center block dims %v", b.Dims)
	}
	b2 := sampling.CenterBlock(data, []int{10, 10}, 4)
	if b2.Dims[0] != 4 || b2.Origin[0] != 3 {
		t.Fatalf("center block = %+v", b2)
	}
}

// TestTunerMatchesExhaustiveSearch pins (methods, α, β) equal between the
// tuner and the exhaustive reference search on brick-sized and field-sized
// inputs, in every tuning mode and traversal variant.
func TestTunerMatchesExhaustiveSearch(t *testing.T) {
	type input struct {
		name string
		data []float32
		dims []int
	}
	var inputs []input
	fields := []datagen.Dataset{datagen.Miranda(96, 96, 96), datagen.NYX(96, 96, 96), datagen.Hurricane(96, 96, 96)}
	if testing.Short() {
		fields = fields[:1]
	}
	for _, ds := range fields {
		brick := sampling.CenterBlock(ds.Data, ds.Dims, 64)
		inputs = append(inputs,
			input{ds.Name + "/field", ds.Data, ds.Dims},
			input{ds.Name + "/brick", brick.Data, brick.Dims})
	}
	cesm := datagen.CESMATM(150, 130)
	tile := sampling.CenterBlock(cesm.Data, cesm.Dims, 64)
	inputs = append(inputs,
		input{"cesm/field", cesm.Data, cesm.Dims},
		input{"cesm/brick", tile.Data, tile.Dims})

	variants := []struct {
		name  string
		apply func(*Options)
	}{
		{"default", func(*Options) {}},
		{"noanchors", func(o *Options) { o.DisableAnchors = true }},
		{"nosampling", func(o *Options) { o.DisableSampling = true }},
	}
	for n, in := range inputs {
		vr := metrics.ValueRange(in.data)
		// The first field and the 2-D one also run a loose and a tight bound.
		rels := []float64{1e-3}
		if n < 2 || len(in.dims) == 2 {
			rels = []float64{1e-2, 1e-3, 1e-4}
		}
		for _, rel := range rels {
			for _, mode := range []Mode{ModeCR, ModePSNR, ModeSSIM, ModeAC} {
				for _, v := range variants {
					o := Options{ErrorBound: rel * vr, Mode: mode}
					v.apply(&o)
					o = o.withDefaults(len(in.dims))
					maxLevel := o.pyramid(in.dims).Top()
					wantM, wantA, wantB := referenceTune(newTuner(in.data, in.dims, o), maxLevel)
					tn := newTuner(in.data, in.dims, o)
					gotM := tn.selectMethods(maxLevel)
					gotA, gotB := tn.tuneParams()
					if !slices.Equal(gotM, wantM) || gotA != wantA || gotB != wantB {
						t.Errorf("%s rel=%g %v %s: tuner chose %v α=%v β=%v, exhaustive search %v α=%v β=%v",
							in.name, rel, mode, v.name, gotM, gotA, gotB, wantM, wantA, wantB)
					}
				}
			}
		}
	}
}

// TestTunerTrialCounts pins what tuning a 64³ brick for compression ratio
// costs: the 17 (α, β) candidates are 13 distinct level-bound sequences on
// 4-level sample blocks, and the finest level is swept once per global
// candidate, once per level-1 candidate and once per trial — no pass is
// run a second time to commit it.
func TestTunerTrialCounts(t *testing.T) {
	ds := datagen.NYX(64, 64, 64)
	opts := Options{ErrorBound: 1e-3 * metrics.ValueRange(ds.Data), Mode: ModeCR}
	res, err := CompressDetailed(ds.Data, ds.Dims, opts)
	if err != nil {
		t.Fatal(err)
	}
	nCands := len(interp.Candidates(3))
	want := TunerStats{Trials: 13, Level1Sweeps: 2*nCands + 13}
	if res.Tuner != want {
		t.Fatalf("tuner stats %+v, want %+v", res.Tuner, want)
	}
	ref := newTuner(ds.Data, ds.Dims, opts.withDefaults(3))
	referenceTune(ref, ref.o.pyramid(ds.Dims).Top())
	if exhaustive := (TunerStats{Trials: 17, Level1Sweeps: 2*nCands + 1 + 17}); ref.stats != exhaustive {
		t.Fatalf("exhaustive search stats %+v, want %+v", ref.stats, exhaustive)
	}
}
