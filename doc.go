// Package qoz is a from-scratch Go implementation of QoZ, the dynamic
// quality-metric-oriented error-bounded lossy compressor for scientific
// floating-point datasets (Liu et al., SC'22).
//
// QoZ guarantees a point-wise absolute error bound while letting the
// caller pick which quality metric the compressor should optimize
// online: compression ratio, PSNR, SSIM, or the autocorrelation of
// compression errors. Internally it uses a multi-level
// spline-interpolation predictor with grid-wise anchor points,
// level-adapted interpolator selection, and auto-tuned level-wise error
// bounds.
//
// # The unified codec API
//
// Every compressor (QoZ and the paper's baselines) is resolved from one
// registry and spoken to through one generic, context-aware API:
//
//	c := qoz.MustLookup("qoz") // or "sz2", "sz3", "zfp", "mgard"
//	buf, err := qoz.Encode(ctx, c, data, []int{nz, ny, nx}, qoz.Options{
//		RelBound: 1e-3,          // 1e-3 of the value range
//		Metric:   qoz.TunePSNR,  // optimize rate–PSNR (QoZ only)
//	})
//	...
//	recon, dims, err := qoz.Decode[float32](ctx, buf)
//
// [Encode] and [Decode] are generic over float32 and float64 fields.
// Double precision rides the escape envelope ([EncodePayload]): each
// value's float32 head is compressed under a tightened bound and the
// rare points whose conversion error alone threatens the bound — plus
// every NaN/±Inf — are stored exactly. The sample kind is always a type
// parameter: float32 data widens exactly into float64 samples, and
// float64 data is never narrowed ([ErrNarrowing]).
//
// # Streaming
//
// The streaming [Encoder] and [Decoder] chunk a field along its slowest
// dimension into independently compressed slabs, compress and decompress
// slabs concurrently on a bounded worker pool, and frame them over any
// io.Writer/io.Reader. The absolute bound is resolved once over the
// whole field before slabbing, so chunking never weakens the guarantee;
// [NextSlabT] (and its float32 method [Decoder.NextSlab]) hands slabs to
// the caller one at a time without materializing the field.
//
// # Random access and serving
//
// The companion package qoz/store turns fields into brick stores —
// random-access archives where any region of interest decodes by
// touching only the bricks it intersects, served locally or over HTTP
// range requests, including mutable stores that grow by whole time
// steps (store.OpenMutable, store.Mutable.AppendSteps). The paper's
// comparison baselines are registry codecs like QoZ itself ("sz2", "sz3",
// "zfp", "mgard"). The other companions provide quality metrics
// (qoz/metrics), synthetic scientific datasets (qoz/datagen), and the
// parallel-I/O model (qoz/parallelio).
package qoz
