// Package quant implements the SZ-style linear-scale quantizer used by all
// prediction-based compressors in this repository.
//
// For a data value v predicted as p under error bound eb, the quantizer
// emits an integer bin q = round((v-p) / (2*eb)) so that the reconstructed
// value p + 2*eb*q differs from v by at most eb. Values whose bin would
// fall outside the configured radius — or whose reconstruction fails the
// bound because of floating-point rounding — are escaped as "unpredictable"
// literals stored exactly, exactly as in SZ (Tao et al., IPDPS'17).
package quant

import (
	"fmt"
	"math"
)

// DefaultRadius matches SZ's default quantization capacity of 65536 bins.
const DefaultRadius = 32768

// LiteralSymbol is the bin symbol reserved for unpredictable (escaped)
// values. Regular bins map to symbol q+radius, which is always >= 1.
const LiteralSymbol = 0

// Quantizer performs error-bounded linear quantization. The zero value is
// not usable; construct with New.
type Quantizer struct {
	eb     float64
	radius int32

	// Bins collects emitted symbols: LiteralSymbol for escapes, otherwise
	// q + radius.
	Bins []uint32
	// Literals collects escaped original values in emission order.
	Literals []float32
}

// New returns a quantizer for the given absolute error bound. eb must be
// positive. radius <= 0 selects DefaultRadius.
func New(eb float64, radius int32) *Quantizer {
	if radius <= 0 {
		radius = DefaultRadius
	}
	return &Quantizer{eb: eb, radius: radius}
}

// ErrorBound returns the quantizer's absolute error bound.
func (q *Quantizer) ErrorBound() float64 { return q.eb }

// SetBound changes the error bound for subsequently quantized values. QoZ
// uses this to apply level-wise bounds e_l = e/min(α^(l-1), β) while
// keeping one symbol stream across levels (the decompressor recomputes the
// same per-level bounds from the stored α and β).
func (q *Quantizer) SetBound(eb float64) { q.eb = eb }

// Quantize encodes value v with prediction p, appends the resulting symbol
// (and literal, if escaped) to the quantizer's streams, and returns the
// reconstructed value the decompressor will see.
func (q *Quantizer) Quantize(v float32, p float64) float32 {
	diff := float64(v) - p
	scaled := diff / (2 * q.eb)
	// Non-finite values (NaN/Inf in the data, or NaN predictions caused by
	// non-finite neighbours) are escaped so they round-trip bit-exactly.
	if math.IsNaN(scaled) || scaled > float64(q.radius-1) || scaled < -float64(q.radius-1) {
		q.Bins = append(q.Bins, LiteralSymbol)
		q.Literals = append(q.Literals, v)
		return v
	}
	bin := int32(math.Round(scaled))
	recon := float32(p + 2*q.eb*float64(bin))
	if math.Abs(float64(recon)-float64(v)) > q.eb {
		// float32 rounding pushed the reconstruction out of bound; escape.
		q.Bins = append(q.Bins, LiteralSymbol)
		q.Literals = append(q.Literals, v)
		return v
	}
	q.Bins = append(q.Bins, uint32(bin+q.radius))
	return recon
}

// EncodeState exposes the constants a fused encode loop needs, so flattened
// sweeps (internal/interp) can inline quantization instead of paying a
// call per point; it mirrors Dequantizer.DecodeState. The loop must apply
// exactly Quantize's expression sequence and append its symbols and
// escaped values to Bins and Literals, which stay the streams of record.
func (q *Quantizer) EncodeState() (radius int32, eb float64) {
	return q.radius, q.eb
}

// EstimateOnly quantizes without retaining streams; it returns the
// reconstruction and whether the value had to be escaped. Used by sampling
// trials where only prediction errors matter.
func EstimateOnly(v float32, p, eb float64, radius int32) (recon float32, escaped bool) {
	diff := float64(v) - p
	scaled := diff / (2 * eb)
	if math.IsNaN(scaled) || scaled > float64(radius-1) || scaled < -float64(radius-1) {
		return v, true
	}
	bin := int32(math.Round(scaled))
	r := float32(p + 2*eb*float64(bin))
	if math.Abs(float64(r)-float64(v)) > eb {
		return v, true
	}
	return r, false
}

// Dequantizer reverses a Quantizer stream.
type Dequantizer struct {
	eb     float64
	radius int32

	bins     []uint32
	literals []float32
	binPos   int
	litPos   int // escape symbols consumed; past len(literals) once starved
}

// NewDequantizer wraps the bin and literal streams recorded by a Quantizer
// configured with the same eb and radius.
func NewDequantizer(eb float64, radius int32, bins []uint32, literals []float32) *Dequantizer {
	if radius <= 0 {
		radius = DefaultRadius
	}
	return &Dequantizer{eb: eb, radius: radius, bins: bins, literals: literals}
}

// SetBound changes the error bound for subsequently dequantized values,
// mirroring Quantizer.SetBound.
func (d *Dequantizer) SetBound(eb float64) { d.eb = eb }

// Next reconstructs the next value given its prediction p. An escape
// symbol that finds the literal stream exhausted yields 0 and is counted:
// CheckLiterals reports it.
func (d *Dequantizer) Next(p float64) float32 {
	sym := d.bins[d.binPos]
	d.binPos++
	if sym == LiteralSymbol {
		d.litPos++
		if d.litPos > len(d.literals) {
			return 0
		}
		return d.literals[d.litPos-1]
	}
	bin := int32(sym) - d.radius
	return float32(p + 2*d.eb*float64(bin))
}

// Remaining reports how many symbols are left, for stream-consistency checks.
func (d *Dequantizer) Remaining() int { return len(d.bins) - d.binPos }

// CheckLiterals returns an error unless the symbols consumed so far escaped
// exactly as often as the literal stream has values. The container carries
// no checksum, so this count is what tells a damaged stream from a sound
// one: call it once the dequantizer's last symbol has been consumed.
func (d *Dequantizer) CheckLiterals() error {
	switch n := len(d.literals) - d.litPos; {
	case n > 0:
		return fmt.Errorf("quant: %d literals left over after the last escape symbol", n)
	case n < 0:
		return fmt.Errorf("quant: %d escape symbols beyond the last literal", -n)
	}
	return nil
}

// DecodeState exposes the unconsumed remainder of the bin and literal
// streams plus the constants a fused decode loop needs, so flattened
// sweeps (internal/interp) can inline dequantization instead of paying a
// call per point. twoEB is 2*eb exactly as Next computes it, so
// pred + twoEB*float64(bin) is bit-identical to Next's arithmetic. The
// caller must report the symbols it consumed via Advance before any
// further Next/DecodeState calls.
func (d *Dequantizer) DecodeState() (bins []uint32, literals []float32, radius int32, twoEB float64) {
	return d.bins[d.binPos:], d.literals[min(d.litPos, len(d.literals)):], d.radius, 2 * d.eb
}

// Advance consumes nBins bin symbols and nLits literals on behalf of a
// fused decode loop operating on DecodeState slices. Like Next, the loop
// counts an escape symbol whether or not a literal was left for it.
func (d *Dequantizer) Advance(nBins, nLits int) {
	d.binPos += nBins
	d.litPos += nLits
}
