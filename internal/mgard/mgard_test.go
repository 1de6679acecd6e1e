package mgard

import (
	"math"
	"testing"

	"qoz/datagen"
	"qoz/internal/interp"
	"qoz/metrics"
)

func TestRoundTripRespectsBound(t *testing.T) {
	for _, ds := range datagen.AllSmall() {
		eb := 1e-3 * metrics.ValueRange(ds.Data)
		buf, err := Compress(ds.Data, ds.Dims, eb)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		recon, dims, err := Decompress(buf)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", ds.Name, err)
		}
		if len(dims) != len(ds.Dims) {
			t.Fatalf("%s: dims %v", ds.Name, dims)
		}
		maxErr, _ := metrics.MaxAbsError(ds.Data, recon)
		if maxErr > eb*(1+1e-12) {
			t.Fatalf("%s: max error %g > %g", ds.Name, maxErr, eb)
		}
	}
}

func TestLevelBoundNeverExceedsGlobal(t *testing.T) {
	for l := 1; l <= 10; l++ {
		if b := interp.LevelBound(0.5, levelTighten, levelCap, l); b > 0.5 {
			t.Fatalf("level %d bound %v exceeds global", l, b)
		}
	}
	if interp.LevelBound(1, levelTighten, levelCap, 1) != 1 {
		t.Fatal("level 1 must use the full bound")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Compress(make([]float32, 4), []int{4}, 0); err == nil {
		t.Error("zero eb accepted")
	}
	if _, err := Compress(make([]float32, 4), []int{3}, 0.1); err == nil {
		t.Error("dims mismatch accepted")
	}
	if _, _, err := Decompress([]byte("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Compress(make([]float32, 4), []int{4}, math.Inf(1)); err == nil {
		t.Error("inf bound accepted")
	}
}

func TestSmallInput(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5}
	buf, err := Compress(data, []int{5}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := metrics.MaxAbsError(data, recon)
	if maxErr > 0.01 {
		t.Fatalf("max error %g", maxErr)
	}
}
