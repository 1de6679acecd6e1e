package core

// EstimateQuality runs a sampled trial compression (the same machinery the
// online tuner uses) and returns the estimated bits per point and PSNR for
// compressing data under opts, without compressing the full array. It
// powers the public fixed-quality (target-PSNR) mode, echoing the
// fixed-PSNR compression of Tao et al. (CLUSTER'18) from the paper's
// related work.
func EstimateQuality(data []float32, dims []int, opts Options) (bitsPerPoint, psnr float64, err error) {
	if err := validate(data, dims, opts.ErrorBound); err != nil {
		return 0, 0, err
	}
	o := opts.withDefaults(len(dims))
	scoring := o
	scoring.Mode = ModePSNR // score trials in PSNR regardless of tuning mode
	t := newTuner(data, dims, scoring)

	t.selectMethods(o.pyramid(dims).Top())
	alpha, beta := o.Alpha, o.Beta
	if opts.Mode != ModeFixed && !opts.DisableParamTuning {
		alpha, beta = t.tuneParams()
	}
	if alpha < 1 {
		alpha = 1
	}
	if beta < 1 {
		beta = 1
	}
	res := t.evaluate(alpha, beta, o.ErrorBound)
	return res.bitrate, res.score, nil
}
