// Package fft implements an in-place radix-2 complex FFT. It is used by the
// dataset generators to synthesize random fields with prescribed power
// spectra (turbulence-like Miranda fields, Gaussian random fields for the
// NYX cosmology analog). Only power-of-two lengths are supported.
package fft

import (
	"errors"
	"math"
	"math/bits"
)

// ErrNotPowerOfTwo reports an unsupported transform length.
var ErrNotPowerOfTwo = errors.New("fft: length is not a power of two")

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return ErrNotPowerOfTwo
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return nil
}

// Inverse3D computes the separable inverse 3D DFT of a nz*ny*nx row-major
// cube, with full 1/N normalization. All extents must be powers of two.
func Inverse3D(x []complex128, nz, ny, nx int) error { return transform3D(x, nz, ny, nx, true) }

func transform3D(x []complex128, nz, ny, nx int, inverse bool) error {
	if nz*ny*nx != len(x) {
		return errors.New("fft: dims do not match data length")
	}
	line := func(n int) ([]complex128, error) {
		if n&(n-1) != 0 {
			return nil, ErrNotPowerOfTwo
		}
		return make([]complex128, n), nil
	}
	// Transform along x (contiguous lines).
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			row := x[(z*ny+y)*nx : (z*ny+y+1)*nx]
			if err := transform(row, inverse); err != nil {
				return err
			}
		}
	}
	// Along y.
	buf, err := line(ny)
	if err != nil {
		return err
	}
	for z := 0; z < nz; z++ {
		for i := 0; i < nx; i++ {
			for y := 0; y < ny; y++ {
				buf[y] = x[(z*ny+y)*nx+i]
			}
			if err := transform(buf, inverse); err != nil {
				return err
			}
			for y := 0; y < ny; y++ {
				x[(z*ny+y)*nx+i] = buf[y]
			}
		}
	}
	// Along z.
	buf, err = line(nz)
	if err != nil {
		return err
	}
	for y := 0; y < ny; y++ {
		for i := 0; i < nx; i++ {
			for z := 0; z < nz; z++ {
				buf[z] = x[(z*ny+y)*nx+i]
			}
			if err := transform(buf, inverse); err != nil {
				return err
			}
			for z := 0; z < nz; z++ {
				x[(z*ny+y)*nx+i] = buf[z]
			}
		}
	}
	if inverse {
		// transform() already divided each 1D pass? No: transform() does not
		// normalize; Inverse (1D) does. Here we used raw transform, so apply
		// the full 1/N once.
		scale := complex(1/float64(len(x)), 0)
		for i := range x {
			x[i] *= scale
		}
	}
	return nil
}
