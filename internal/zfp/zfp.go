// Package zfp implements a ZFP-like transform-based error-bounded
// compressor (Lindstrom, TVCG 2014) in its fixed-accuracy mode, the third
// comparison baseline of the QoZ paper.
//
// Pipeline, per non-overlapping 4^d block:
//
//  1. block-floating-point: align all values to the block's maximum
//     exponent and convert to fixed point;
//  2. reversible integer decorrelating transform along each dimension
//     (a two-level S-transform — exactly invertible, unlike zfp's own
//     rounding transform, which lets us *verify* the error bound per
//     block at encode time and add planes if ever needed);
//  3. total-sequency coefficient reordering and negabinary mapping;
//  4. embedded bit-plane coding with tail group testing, truncated at the
//     lowest plane that provably (and verifiably) respects the bound.
//
// Blocks whose values are all within the bound of zero are emitted as
// zero-blocks; blocks that cannot meet an extremely small bound in fixed
// point fall back to raw float32 storage, so the error bound always holds.
package zfp

import (
	"errors"
	"fmt"
	"math"

	"qoz/internal/bitio"
	"qoz/internal/container"
	"qoz/internal/grid"
)

const (
	blockEdge = 4
	// fracBits is the fixed-point fraction width for normalized values.
	fracBits = 30
	// maxPlane is the highest negabinary bit plane after transform growth
	// (2 bits per S-transform level × 2 levels per dim × up to 3 dims).
	maxPlane = 38
)

const codecID = container.CodecZFP

// Section ids.
const (
	secHeaders = 1
	secBits    = 2
	secRaw     = 3
)

// Per-block flags.
const (
	blkCoded = 0
	blkZero  = 1
	blkRaw   = 2
)

// Compress compresses data under absolute error bound eb.
func Compress(data []float32, dims []int, eb float64) ([]byte, error) {
	if err := validate(data, dims, eb); err != nil {
		return nil, err
	}
	nd := len(dims)
	bn := 1 << (2 * nd) // 4^nd values per block
	order := sequencyOrder(nd)
	strides := grid.StridesOf(dims)

	headers := make([]byte, 0, 1024)
	w := bitio.NewWriter(len(data) / 2)
	var raw []float32
	block := make([]float64, bn)
	iv := make([]int64, bn)

	grid.EachTile(dims, blockEdge, func(origin, size []int) {
		gatherPadded(data, strides, origin, size, nd, block)
		maxAbs := 0.0
		finite := true
		for _, v := range block {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if !finite {
			// Blocks containing NaN/Inf round-trip exactly via raw storage.
			headers = append(headers, blkRaw, 0, 0)
			for _, v := range block {
				raw = append(raw, float32(v))
			}
			return
		}
		if maxAbs <= 0.9*eb {
			headers = append(headers, blkZero, 0, 0)
			return
		}
		_, emax := math.Frexp(maxAbs) // maxAbs in [2^(emax-1), 2^emax)
		scale := math.Ldexp(1, fracBits-emax)
		// Fixed-point quantization error is 0.5/scale; require it far
		// below eb or fall back to raw storage.
		if 4/scale > eb {
			headers = append(headers, blkRaw, 0, 0)
			for _, v := range block {
				raw = append(raw, float32(v))
			}
			return
		}
		for i, v := range block {
			iv[i] = int64(math.Round(v * scale))
		}
		forwardTransform(iv, nd)

		// Choose the lowest encoded plane from the bound, then verify and
		// lower it if the (conservative) estimate was not enough.
		gain := inverseGainBound(nd)
		kmin := int(math.Floor(math.Log2(eb * scale / gain)))
		if kmin < 0 {
			kmin = 0
		}
		if kmin > maxPlane {
			kmin = maxPlane
		}
		for {
			if verifyBlock(iv, nd, order, kmin, scale, block, eb) {
				break
			}
			if kmin == 0 {
				break // plane 0 reached: only fixed-point error remains
			}
			kmin -= 2
			if kmin < 0 {
				kmin = 0
			}
		}
		headers = append(headers, blkCoded, byte(int8(emax)), byte(kmin))
		encodeBlock(w, iv, order, kmin)
	})

	s := &container.Stream{
		Codec:      codecID,
		Dims:       dims,
		ErrorBound: eb,
		Sections: []container.Section{
			{ID: secHeaders, Data: headers},
			{ID: secBits, Data: w.Bytes()},
			{ID: secRaw, Data: container.Float32sToBytes(raw)},
		},
	}
	return container.Encode(s)
}

// Decompress reverses Compress.
func Decompress(buf []byte) ([]float32, []int, error) {
	s, err := container.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	defer s.Release() // everything returned is copied out of the sections
	if s.Codec != codecID {
		return nil, nil, container.ErrCodecMismatch
	}
	dims := s.Dims
	nd := len(dims)
	bn := 1 << (2 * nd)
	order := sequencyOrder(nd)
	strides := grid.StridesOf(dims)
	headers := s.Section(secHeaders)
	r := bitio.NewReader(s.Section(secBits))
	raw, err := container.BytesToFloat32s(s.Section(secRaw))
	if err != nil {
		return nil, nil, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := make([]float32, n)
	iv := make([]int64, bn)
	block := make([]float64, bn)
	rawPos := 0
	hdrPos := 0
	var decErr error

	grid.EachTile(dims, blockEdge, func(origin, size []int) {
		if decErr != nil {
			return
		}
		if hdrPos+3 > len(headers) {
			decErr = errors.New("zfp: header stream too short")
			return
		}
		flag := headers[hdrPos]
		emax := int(int8(headers[hdrPos+1]))
		kmin := int(headers[hdrPos+2])
		hdrPos += 3
		switch flag {
		case blkZero:
			for i := range block {
				block[i] = 0
			}
		case blkRaw:
			if rawPos+bn > len(raw) {
				decErr = errors.New("zfp: raw stream too short")
				return
			}
			for i := 0; i < bn; i++ {
				block[i] = float64(raw[rawPos+i])
			}
			rawPos += bn
		case blkCoded:
			if err := decodeBlock(r, iv, order, kmin); err != nil {
				decErr = err
				return
			}
			inverseTransform(iv, nd)
			scale := math.Ldexp(1, fracBits-emax)
			for i := range block {
				block[i] = float64(iv[i]) / scale
			}
		default:
			decErr = errors.New("zfp: unknown block flag")
			return
		}
		scatter(out, strides, origin, size, nd, block)
	})
	if decErr != nil {
		return nil, nil, decErr
	}
	return out, dims, nil
}

// verifyBlock decodes the block locally and checks the bound against the
// padded original values — the guarantee that makes fixed-accuracy mode
// strict even with a conservative gain estimate.
func verifyBlock(iv []int64, nd int, order []int, kmin int, scale float64, orig []float64, eb float64) bool {
	dup := make([]int64, len(iv))
	for i, v := range iv {
		u := toNegabinary(v)
		u = truncate(u, kmin)
		dup[i] = fromNegabinary(u)
	}
	_ = order
	inverseTransform(dup, nd)
	for i := range dup {
		if math.Abs(float64(dup[i])/scale-orig[i]) > eb {
			return false
		}
	}
	return true
}

// ---- embedded bit-plane coding ----

// encodeBlock writes planes maxPlane..kmin of the negabinary coefficients
// in sequency order, with a tail-test bit per plane segment (a simplified
// version of zfp's group testing).
func encodeBlock(w *bitio.Writer, iv []int64, order []int, kmin int) {
	n := len(order)
	u := make([]uint64, n)
	for i, oi := range order {
		u[i] = toNegabinary(iv[oi])
	}
	sig := make([]bool, n)
	for k := maxPlane; k >= kmin; k-- {
		mask := uint64(1) << uint(k)
		// Refinement: bits of already-significant coefficients.
		for i := 0; i < n; i++ {
			if sig[i] {
				w.WriteBit(uint(u[i]>>uint(k)) & 1)
			}
		}
		// Significance with tail tests.
		for i := 0; i < n; {
			any := false
			for j := i; j < n; j++ {
				if !sig[j] && u[j]&mask != 0 {
					any = true
					break
				}
			}
			if !any {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for ; i < n; i++ {
				if sig[i] {
					continue
				}
				b := uint(u[i]>>uint(k)) & 1
				w.WriteBit(b)
				if b == 1 {
					sig[i] = true
					i++
					break
				}
			}
		}
	}
}

// decodeBlock reverses encodeBlock, writing recovered coefficients back to
// their natural positions in iv.
func decodeBlock(r *bitio.Reader, iv []int64, order []int, kmin int) error {
	n := len(order)
	u := make([]uint64, n)
	sig := make([]bool, n)
	for k := maxPlane; k >= kmin; k-- {
		for i := 0; i < n; i++ {
			if sig[i] {
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				u[i] |= uint64(b) << uint(k)
			}
		}
		for i := 0; i < n; {
			t, err := r.ReadBit()
			if err != nil {
				return err
			}
			if t == 0 {
				break
			}
			found := false
			for ; i < n; i++ {
				if sig[i] {
					continue
				}
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b == 1 {
					u[i] |= uint64(1) << uint(k)
					sig[i] = true
					found = true
					i++
					break
				}
			}
			if !found {
				return errors.New("zfp: corrupt significance pass")
			}
		}
	}
	for i, oi := range order {
		iv[oi] = fromNegabinary(u[i])
	}
	return nil
}

// truncate zeroes all planes below kmin.
func truncate(u uint64, kmin int) uint64 {
	if kmin <= 0 {
		return u
	}
	return u &^ ((uint64(1) << uint(kmin)) - 1)
}

// ---- negabinary mapping ----

const negaMask = 0xaaaaaaaaaaaaaaaa

func toNegabinary(i int64) uint64 {
	return (uint64(i) + negaMask) ^ negaMask
}

func fromNegabinary(u uint64) int64 {
	return int64((u ^ negaMask) - negaMask)
}

// ---- reversible decorrelating transform ----

// fwdPair applies the S-transform to (a, b): mean and difference,
// exactly invertible in integers.
func fwdPair(a, b int64) (l, h int64) {
	h = a - b
	l = b + (h >> 1)
	return l, h
}

func invPair(l, h int64) (a, b int64) {
	b = l - (h >> 1)
	a = b + h
	return a, b
}

// fwdLift4 transforms 4 elements with stride s: two pair levels.
func fwdLift4(p []int64, off, s int) {
	a, b, c, d := p[off], p[off+s], p[off+2*s], p[off+3*s]
	l0, h0 := fwdPair(a, b)
	l1, h1 := fwdPair(c, d)
	ll, lh := fwdPair(l0, l1)
	p[off], p[off+s], p[off+2*s], p[off+3*s] = ll, lh, h0, h1
}

func invLift4(p []int64, off, s int) {
	ll, lh, h0, h1 := p[off], p[off+s], p[off+2*s], p[off+3*s]
	l0, l1 := invPair(ll, lh)
	a, b := invPair(l0, h0)
	c, d := invPair(l1, h1)
	p[off], p[off+s], p[off+2*s], p[off+3*s] = a, b, c, d
}

// forwardTransform lifts along every dimension of the 4^nd block.
func forwardTransform(iv []int64, nd int) {
	switch nd {
	case 1:
		fwdLift4(iv, 0, 1)
	case 2:
		for y := 0; y < 4; y++ {
			fwdLift4(iv, 4*y, 1)
		}
		for x := 0; x < 4; x++ {
			fwdLift4(iv, x, 4)
		}
	default:
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				fwdLift4(iv, 16*z+4*y, 1)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				fwdLift4(iv, 16*z+x, 4)
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				fwdLift4(iv, 4*y+x, 16)
			}
		}
	}
}

func inverseTransform(iv []int64, nd int) {
	switch nd {
	case 1:
		invLift4(iv, 0, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift4(iv, x, 4)
		}
		for y := 0; y < 4; y++ {
			invLift4(iv, 4*y, 1)
		}
	default:
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift4(iv, 4*y+x, 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift4(iv, 16*z+x, 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift4(iv, 16*z+4*y, 1)
			}
		}
	}
}

// inverseGainBound conservatively bounds how much a coefficient error can
// grow through the inverse transform (≤ ~1.5 per S-level, 2 levels per dim).
func inverseGainBound(nd int) float64 {
	g := 1.0
	for d := 0; d < nd; d++ {
		g *= 2.5
	}
	return 4 * g
}

// sequencyOrder sorts block positions by total coordinate sum (low
// frequencies first), mirroring zfp's total-sequency ordering.
func sequencyOrder(nd int) []int {
	bn := 1 << (2 * nd)
	order := make([]int, bn)
	for i := range order {
		order[i] = i
	}
	key := func(i int) int {
		sum := 0
		for d := 0; d < nd; d++ {
			sum += (i >> (2 * d)) & 3
		}
		return sum
	}
	// Insertion sort keeps it dependency-free and stable for ≤64 items.
	for i := 1; i < bn; i++ {
		for j := i; j > 0 && (key(order[j]) < key(order[j-1]) ||
			(key(order[j]) == key(order[j-1]) && order[j] < order[j-1])); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// ---- block gather/scatter with edge padding ----

// gatherPadded copies a (possibly clipped) block into a full 4^nd buffer,
// replicating the last valid sample along each dimension.
func gatherPadded(data []float32, strides []int, origin, size []int, nd int, out []float64) {
	idx := 0
	var walk func(d int, off int)
	walk = func(d, off int) {
		if d == nd {
			out[idx] = float64(data[off])
			idx++
			return
		}
		for i := 0; i < blockEdge; i++ {
			j := i
			if j >= size[d] {
				j = size[d] - 1 // replicate edge
			}
			walk(d+1, off+(origin[d]+j)*strides[d])
		}
	}
	walk(0, 0)
}

// scatter writes the valid region of a decoded block back to the output.
func scatter(out []float32, strides []int, origin, size []int, nd int, block []float64) {
	idx := 0
	var walk func(d int, off int, valid bool)
	walk = func(d, off int, valid bool) {
		if d == nd {
			if valid {
				out[off] = float32(block[idx])
			}
			idx++
			return
		}
		for i := 0; i < blockEdge; i++ {
			j := i
			v := valid && i < size[d]
			if j >= size[d] {
				j = size[d] - 1
			}
			walk(d+1, off+(origin[d]+j)*strides[d], v)
		}
	}
	walk(0, 0, true)
}

// ---- shared helpers ----

// validate checks Compress's input; the block transform covers 1 to 3
// dimensions.
func validate(data []float32, dims []int, eb float64) error {
	if len(dims) > 3 {
		return errors.New("zfp: 1 to 3 dimensions supported")
	}
	if err := container.CheckField(dims, len(data), eb); err != nil {
		return fmt.Errorf("zfp: %w", err)
	}
	return nil
}
