package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMSE(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 2, 3, 4}
	if got, _ := MSE(a, b); got != 0 {
		t.Fatalf("MSE identical = %v", got)
	}
	c := []float32{2, 3, 4, 5}
	if got, _ := MSE(a, c); got != 1 {
		t.Fatalf("MSE shifted = %v, want 1", got)
	}
	if _, err := MSE(a, c[:3]); err != ErrShapeMismatch {
		t.Fatal("expected shape mismatch")
	}
	if got, _ := MSE(nil, nil); got != 0 {
		t.Fatal("empty MSE should be 0")
	}
}

func TestValueRange(t *testing.T) {
	if vr := ValueRange([]float32{3, -2, 7}); vr != 9 {
		t.Fatalf("ValueRange = %v, want 9", vr)
	}
	if vr := ValueRange([]float32{5, 5}); vr != 0 {
		t.Fatalf("constant range = %v, want 0", vr)
	}
	if vr := ValueRange(nil); vr != 0 {
		t.Fatalf("empty range = %v, want 0", vr)
	}
}

// TestValueRangeSkipsNaN: a NaN is skipped wherever it sits, the first
// sample included; infinities count as they always did.
func TestValueRangeSkipsNaN(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		in   []float32
		want float64
	}{
		{[]float32{nan, 1, 3}, 2},
		{[]float32{1, nan, 3}, 2},
		{[]float32{1, 3, nan}, 2},
		{[]float32{nan, nan}, 0},
		{[]float32{nan, -inf, 3}, math.Inf(1)},
		{[]float32{1, inf}, math.Inf(1)},
	} {
		if got := ValueRange(c.in); got != c.want {
			t.Errorf("ValueRange(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := ValueRange([]float32{inf, inf}); !math.IsNaN(got) {
		t.Errorf("ValueRange of one infinity = %v, want NaN as before", got)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	// range 1, rmse 0.01 -> 40 dB.
	n := 1000
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i % 2) // range 1
		b[i] = a[i] + 0.01
	}
	got, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 40, 0.01) {
		t.Fatalf("PSNR = %v, want 40", got)
	}
}

func TestPSNRPerfect(t *testing.T) {
	a := []float32{1, 2, 3}
	if got, _ := PSNR(a, a); !math.IsInf(got, 1) {
		t.Fatalf("perfect PSNR = %v, want +Inf", got)
	}
}

func TestNRMSE(t *testing.T) {
	a := []float32{0, 1}
	b := []float32{0.1, 1.1}
	got, _ := NRMSE(a, b)
	if !almost(got, 0.1, 1e-6) { // 0.1 is not exactly representable in float32

		t.Fatalf("NRMSE = %v, want 0.1", got)
	}
}

func TestMaxAbsError(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{0.5, -1.5, 0.2}
	got, _ := MaxAbsError(a, b)
	if got != 1.5 {
		t.Fatalf("MaxAbsError = %v, want 1.5", got)
	}
}

// TestMaxAbsErrorNonFinite: a decoder that emits NaN or an infinity where
// the original was a number (or the other way round) breaks every bound;
// a non-finite sample reproduced exactly costs nothing.
func TestMaxAbsErrorNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		orig, recon []float32
		want        float64
	}{
		{[]float32{1, 2}, []float32{1, nan}, math.Inf(1)},
		{[]float32{1, nan}, []float32{1, 2}, math.Inf(1)},
		{[]float32{1, 2}, []float32{1, inf}, math.Inf(1)},
		{[]float32{inf, 2}, []float32{-inf, 2}, math.Inf(1)},
		{[]float32{inf, 2}, []float32{nan, 2}, math.Inf(1)},
		{[]float32{nan, 2}, []float32{nan, 2.5}, 0.5},
		{[]float32{inf, -inf, 2}, []float32{inf, -inf, 2.25}, 0.25},
	} {
		if got, _ := MaxAbsError(c.orig, c.recon); got != c.want {
			t.Errorf("MaxAbsError(%v, %v) = %v, want %v", c.orig, c.recon, got, c.want)
		}
	}
}

func TestAutoCorrelationWhiteVsSmooth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	orig := make([]float32, n)
	white := make([]float32, n)
	smooth := make([]float32, n)
	phase := 0.0
	for i := range orig {
		orig[i] = 0
		white[i] = float32(rng.NormFloat64())
		phase += rng.NormFloat64() * 0.05
		smooth[i] = float32(math.Sin(float64(i)/40 + phase))
	}
	acWhite, err := AutoCorrelation(orig, white, 1)
	if err != nil {
		t.Fatal(err)
	}
	acSmooth, err := AutoCorrelation(orig, smooth, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acWhite) > 0.05 {
		t.Fatalf("white noise AC = %v, want ~0", acWhite)
	}
	if acSmooth < 0.9 {
		t.Fatalf("smooth error AC = %v, want near 1", acSmooth)
	}
}

func TestAutoCorrelationDegenerate(t *testing.T) {
	a := []float32{1, 1, 1, 1, 1}
	if got, _ := AutoCorrelation(a, a, 1); got != 0 {
		t.Fatalf("zero-variance AC = %v, want 0", got)
	}
	if _, err := AutoCorrelation(a, a, 0); err == nil {
		t.Fatal("lag 0 should error")
	}
	if _, err := AutoCorrelation(a[:2], a[:2], 5); err == nil {
		t.Fatal("short series should error")
	}
}

func TestBitRateAndCR(t *testing.T) {
	if br := BitRate(100, 100); br != 8 {
		t.Fatalf("BitRate = %v, want 8", br)
	}
	if cr := CompressionRatio(100, 40); cr != 10 {
		t.Fatalf("CR = %v, want 10", cr)
	}
	if !math.IsInf(CompressionRatio(10, 0), 1) {
		t.Fatal("CR with zero bytes should be +Inf")
	}
	if BitRate(10, 0) != 0 {
		t.Fatal("BitRate with n=0 should be 0")
	}
}

func TestSSIMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []int{32, 48}
	a := make([]float32, 32*48)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	got, err := SSIM(a, a, dims)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 1, 1e-9) {
		t.Fatalf("SSIM(a,a) = %v, want 1", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{64, 64}
	a := make([]float32, 64*64)
	for i := range a {
		x, y := i/64, i%64
		a[i] = float32(math.Sin(float64(x)/7) * math.Cos(float64(y)/9))
	}
	mild := make([]float32, len(a))
	heavy := make([]float32, len(a))
	for i := range a {
		mild[i] = a[i] + float32(rng.NormFloat64()*0.01)
		heavy[i] = a[i] + float32(rng.NormFloat64()*0.3)
	}
	sMild, _ := SSIM(a, mild, dims)
	sHeavy, _ := SSIM(a, heavy, dims)
	if !(sMild > sHeavy) {
		t.Fatalf("SSIM mild %v should exceed heavy %v", sMild, sHeavy)
	}
	if sMild < 0.9 {
		t.Fatalf("mild-noise SSIM = %v, want > 0.9", sMild)
	}
}

func TestSSIM3D(t *testing.T) {
	dims := []int{12, 12, 12}
	n := 12 * 12 * 12
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i % 7)
	}
	got, err := SSIM(a, a, dims)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 1, 1e-9) {
		t.Fatalf("3D SSIM identity = %v", got)
	}
}

func TestSSIM1D(t *testing.T) {
	n := 500
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(math.Sin(float64(i) / 20))
		b[i] = a[i]
	}
	got, err := SSIM(a, b, []int{n})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 1, 1e-9) {
		t.Fatalf("1D SSIM identity = %v", got)
	}
}

func TestSSIMErrors(t *testing.T) {
	if _, err := SSIM(make([]float32, 4), make([]float32, 5), []int{4}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SSIM(make([]float32, 4), make([]float32, 4), []int{5}); err == nil {
		t.Fatal("dims/data mismatch accepted")
	}
	if _, err := SSIM(make([]float32, 16), make([]float32, 16), []int{2, 2, 2, 2}); err == nil {
		t.Fatal("4D accepted")
	}
}

// Property: SSIM is symmetric in its window statistics up to small float
// effects and bounded by ~[-1, 1] for random fields.
func TestSSIMBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w := 8+rng.Intn(24), 8+rng.Intn(24)
		a := make([]float32, h*w)
		b := make([]float32, h*w)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		s, err := SSIM(a, b, []int{h, w})
		if err != nil {
			return false
		}
		return s >= -1.0001 && s <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSSIMBitsPinned pins SSIM bit for bit on seeded fields whose windows
// are full and ragged, 1-D to 3-D: a rewrite of the window walk must keep
// the summation order. Shape {65}'s last window holds one point and is
// skipped; {1, 40, 3}'s windows are all clipped on two axes.
func TestSSIMBitsPinned(t *testing.T) {
	cases := []struct {
		dims []int
		bits uint64
	}{
		{[]int{65}, 0x3fef3654c6cc173a},
		{[]int{100}, 0x3fefc498730106f4},
		{[]int{33, 17}, 0x3fef6edb6b2fe23d},
		{[]int{6, 6, 6}, 0x3fefc36efe94ec3f},
		{[]int{13, 7, 20}, 0x3fef3e45e11e1078},
		{[]int{1, 40, 3}, 0x3fefaf703491c208},
	}
	for i, c := range cases {
		n := 1
		for _, d := range c.dims {
			n *= d
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		orig, recon := make([]float32, n), make([]float32, n)
		for j := range orig {
			orig[j] = float32(math.Sin(float64(j)/9) + 0.2*rng.NormFloat64())
			recon[j] = orig[j] + float32(0.05*rng.NormFloat64())
		}
		got, err := SSIM(orig, recon, c.dims)
		if err != nil {
			t.Fatalf("dims %v: %v", c.dims, err)
		}
		if b := math.Float64bits(got); b != c.bits {
			t.Errorf("dims %v: SSIM = %v (bits %#x), want bits %#x", c.dims, got, b, c.bits)
		}
	}
}

// Property: PSNR decreases (or stays equal) as uniform noise amplitude grows.
func TestPSNRMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 256
		a := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		noise := make([]float64, n)
		for i := range noise {
			noise[i] = rng.NormFloat64()
		}
		mk := func(amp float64) []float32 {
			out := make([]float32, n)
			for i := range out {
				out[i] = a[i] + float32(amp*noise[i])
			}
			return out
		}
		p1, _ := PSNR(a, mk(0.01))
		p2, _ := PSNR(a, mk(0.1))
		return p1 > p2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
