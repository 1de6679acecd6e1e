package qoz

import (
	"errors"

	"qoz/internal/core"
)

// Tuning selects the quality metric QoZ optimizes during compression.
type Tuning uint8

const (
	// TuneCR maximizes compression ratio under the error bound (default).
	TuneCR Tuning = iota
	// TunePSNR optimizes the rate–PSNR trade-off.
	TunePSNR
	// TuneSSIM optimizes the rate–SSIM trade-off.
	TuneSSIM
	// TuneAC minimizes the lag-1 autocorrelation of compression errors.
	TuneAC
	// TuneFixed disables auto-tuning and uses Options.Alpha/Beta.
	TuneFixed
)

// String returns the tuning mode's name.
func (t Tuning) String() string { return core.Mode(t).String() }

// Options configures compression. Exactly one of ErrorBound (absolute) or
// RelBound (relative to the data's value range, the "ε" of the paper's
// tables) must be positive.
type Options struct {
	// ErrorBound is the absolute error bound e.
	ErrorBound float64
	// RelBound is the value-range-relative error bound ε; the absolute
	// bound used is ε · (max−min).
	RelBound float64
	// Metric is the quality metric to optimize online.
	Metric Tuning
	// Alpha, Beta set the level-wise error-bound parameters when
	// Metric == TuneFixed (e_l = e / min(Alpha^(l-1), Beta)).
	Alpha, Beta float64

	// Advanced knobs; zero values select the paper's defaults.
	AnchorStride int     // anchor grid spacing (power of two)
	SampleBlock  int     // tuning sample block edge
	SampleRate   float64 // tuning sample fraction

	// Ablation switches used by the Fig. 12 experiment; leave false for
	// normal operation.
	DisableAnchors     bool
	DisableSampling    bool
	DisableLevelSelect bool
	DisableParamTuning bool
}

// Stats reports the tuning decisions made for a compressed stream.
type Stats struct {
	AbsBound float64 // the absolute bound actually applied
	Alpha    float64
	Beta     float64
	Levels   int
}

// absBound resolves the absolute error bound of o over a field of either
// sample kind: ErrorBound as given, or RelBound scaled by the range of the
// field's finite samples.
func absBound[T Float](o Options, data []T) (float64, error) {
	eb := o.ErrorBound
	if o.RelBound > 0 {
		if eb > 0 {
			return 0, errors.New("qoz: set either ErrorBound or RelBound, not both")
		}
		eb = o.RelBound * finiteRange(data)
		if eb == 0 {
			// Constant (or wholly non-finite) field: any positive bound
			// preserves it exactly. The bound is recorded in stream and
			// store headers, so each kind keeps the value it always wrote.
			eb = 1e-12
			if elemSize[T]() == 8 {
				eb = 1e-300
			}
		}
	}
	if eb <= 0 {
		return 0, errors.New("qoz: a positive ErrorBound or RelBound is required")
	}
	return eb, nil
}

// ResolveAbs is ResolveAbsT for a float32 field.
func (o Options) ResolveAbs(data []float32) (Options, error) { return ResolveAbsT(o, data) }

// ResolveAbsT returns a copy of o whose error bound is resolved to an
// absolute ErrorBound over data — a float32 or float64 field, or any type
// defined on them — with RelBound folded in and cleared. This is the form
// required by writers that never see the whole field at once, such as the
// brick store's incremental Writer.
func ResolveAbsT[T Float](o Options, data []T) (Options, error) {
	eb, err := absBound(o, data)
	if err != nil {
		return Options{}, err
	}
	o.ErrorBound, o.RelBound = eb, 0
	return o, nil
}

func (o Options) resolve(data []float32) (core.Options, error) {
	eb, err := absBound(o, data)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		ErrorBound:         eb,
		Mode:               core.Mode(o.Metric),
		Alpha:              o.Alpha,
		Beta:               o.Beta,
		AnchorStride:       o.AnchorStride,
		SampleBlock:        o.SampleBlock,
		SampleRate:         o.SampleRate,
		DisableAnchors:     o.DisableAnchors,
		DisableSampling:    o.DisableSampling,
		DisableLevelSelect: o.DisableLevelSelect,
		DisableParamTuning: o.DisableParamTuning,
	}, nil
}

// CompressStats compresses a float32 field with the QoZ codec into its
// bare container — exactly MustLookup(DefaultCodec).Compress — and also
// returns the tuning decisions that were made.
func CompressStats(data []float32, dims []int, opts Options) ([]byte, Stats, error) {
	co, err := opts.resolve(data)
	if err != nil {
		return nil, Stats{}, err
	}
	res, err := core.CompressDetailed(data, dims, co)
	if err != nil {
		return nil, Stats{}, err
	}
	return res.Bytes, Stats{
		AbsBound: co.ErrorBound,
		Alpha:    res.Alpha,
		Beta:     res.Beta,
		Levels:   len(res.Methods),
	}, nil
}
