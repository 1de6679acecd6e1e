package qoz_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"qoz"
	"qoz/internal/core"
	"qoz/internal/pool"
)

// workerBudgets are the worker counts one compression is given below; 1
// is the serial reference.
var workerBudgets = []int{1, 2, 3, 8}

// coreOptions resolves o over data into the core pipeline's options with
// a worker budget, the way the qoz codec does.
func coreOptions(t *testing.T, o qoz.Options, data []float32, workers int) core.Options {
	t.Helper()
	abs, err := o.ResolveAbs(data)
	if err != nil {
		t.Fatal(err)
	}
	return core.Options{
		ErrorBound:         abs.ErrorBound,
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
		Workers:            workers,
	}
}

// TestEncodeIgnoresWorkerBudget pins that the goroutines one compression
// runs on change nothing it decides or writes: over every encoder golden
// field — 1-D to 4-D shapes, the NaN/±Inf/1e30 outlier field, the three
// 96³ datasets — and every golden config, a QoZ compression at budgets 2,
// 3 and 8 makes the serial stream and the same tuning decisions and
// TunerStats. The same holds for the budget a context hands the qoz codec
// and for the float64 envelope of EncodePayload. Run it under -cpu 1 too:
// a budget above GOMAXPROCS must change nothing either.
//
// -short, and the race detector, keep the fields below 96³ — odd70x33x50
// still has sub-passes large enough to sweep in chunks — their core
// configs and budgets 1 and 3.
func TestEncodeIgnoresWorkerBudget(t *testing.T) {
	ctx := context.Background()
	codec := qoz.MustLookup(qoz.DefaultCodec)
	subset := testing.Short() || raceEnabled
	budgets := workerBudgets
	if subset {
		budgets = []int{1, 3}
	}
	for _, f := range goldenFields() {
		wide := widen(f.data)
		for _, c := range goldenConfigs() {
			if subset && (f.big || !c.core) {
				continue
			}
			o := f.opts
			c.apply(&o)
			tag := f.name + "/" + c.name
			var ref *core.Result
			var refF64 []byte
			for _, w := range budgets {
				label := fmt.Sprintf("%s at %d workers", tag, w)
				res, err := core.CompressDetailed(f.data, f.dims, coreOptions(t, o, f.data, w))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if ref == nil {
					ref = res
				} else {
					if !bytes.Equal(res.Bytes, ref.Bytes) {
						t.Fatalf("%s: stream differs from the serial one", label)
					}
					res.Bytes = ref.Bytes
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("%s: tuning %+v, want the serial %+v", label, *res, *ref)
					}
				}
				if f.big && !c.core {
					continue
				}
				wctx := pool.WithWorkers(ctx, w)
				b, err := codec.Compress(wctx, f.data, f.dims, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(b, ref.Bytes) {
					t.Fatalf("%s: the codec given the budget on its context wrote another stream", label)
				}
				b, err = qoz.EncodePayload(wctx, codec, wide, f.dims, o)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if refF64 == nil {
					refF64 = b
				} else if !bytes.Equal(b, refF64) {
					t.Fatalf("%s: float64 payload differs from the serial one", label)
				}
			}
		}
	}
}
