package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRejectsNonPowerOfTwo(t *testing.T) {
	x := make([]complex128, 12)
	if err := Forward(x); err != ErrNotPowerOfTwo {
		t.Fatalf("got %v, want ErrNotPowerOfTwo", err)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if err := Forward(nil); err != nil {
		t.Fatal(err)
	}
	x := []complex128{3 + 4i}
	if err := Forward(x); err != nil || x[0] != 3+4i {
		t.Fatalf("single-point FFT changed value: %v, %v", x[0], err)
	}
}

func TestKnownDFT(t *testing.T) {
	// DFT of [1,0,0,0] is all ones.
	x := []complex128{1, 0, 0, 0}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestPureToneBin(t *testing.T) {
	n := 64
	k := 5
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(k*i) / float64(n)
		x[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := 0.0
		if i == k {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want %v", i, cmplx.Abs(v), want)
		}
	}
}

func TestInverseIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(9))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := Forward(x); err != nil {
			return false
		}
		if err := Inverse(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func Test3DInverseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nz, ny, nx := 8, 16, 4
	x := make([]complex128, nz*ny*nx)
	orig := make([]complex128, len(x))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = x[i]
	}
	if err := Forward3D(x, nz, ny, nx); err != nil {
		t.Fatal(err)
	}
	if err := Inverse3D(x, nz, ny, nx); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("index %d: %v != %v", i, x[i], orig[i])
		}
	}
}

func Test3DDimsMismatch(t *testing.T) {
	if err := Forward3D(make([]complex128, 10), 2, 2, 2); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if err := Forward3D(make([]complex128, 24), 2, 3, 4); err != ErrNotPowerOfTwo {
		t.Fatalf("non-power-of-two dim accepted: %v", err)
	}
}

// Forward computes the in-place forward DFT of x (no normalization).
func Forward(x []complex128) error { return transform(x, false) }

// Inverse computes the in-place inverse DFT of x, scaled by 1/N so that
// Inverse(Forward(x)) == x.
func Inverse(x []complex128) error {
	if err := transform(x, true); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

// Forward3D computes the separable 3D FFT of a nz*ny*nx row-major cube.
// All extents must be powers of two.
func Forward3D(x []complex128, nz, ny, nx int) error { return transform3D(x, nz, ny, nx, false) }
