package qoz

import (
	"context"
	"errors"

	"qoz/internal/pool"
)

// Field is one named array in a multi-field dataset (scientific dumps such
// as Hurricane-Isabel carry dozens of fields per time step).
type Field struct {
	Name string
	Data []float32
	Dims []int
}

// FieldResult is the outcome of compressing or decompressing one field.
type FieldResult struct {
	Name  string
	Bytes []byte // compressed stream (EncodeFields)
	Data  []float32
	Dims  []int
	Err   error
}

// EncodeFields compresses many fields concurrently through codec c (nil
// selects the registry default) with a bounded worker pool (workers <= 0
// selects GOMAXPROCS), the way each core compresses its own partition in
// the paper's parallel dumping experiment. Results are returned in input
// order; per-field failures are reported in Err without aborting the
// batch. Context cancellation marks the remaining fields failed.
func EncodeFields(ctx context.Context, c Codec, fields []Field, opts Options, workers int) []FieldResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if c == nil {
		c = MustLookup(DefaultCodec)
	}
	results := make([]FieldResult, len(fields))
	// Workers the fields leave idle go to each field's own stages.
	fieldCtx := pool.WithWorkers(ctx, pool.Share(workers, len(fields)))
	pool.Run(len(fields), workers, func(i int) {
		f := fields[i]
		results[i].Name = f.Name
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			return
		}
		if f.Data == nil {
			results[i].Err = errors.New("qoz: nil field data")
			return
		}
		buf, err := c.Compress(fieldCtx, f.Data, f.Dims, opts)
		results[i].Bytes = buf
		results[i].Err = err
	})
	return results
}

// DecodeFields decompresses many streams concurrently, routing each
// through the codec registry by its header; see EncodeFields for pool
// semantics. Float64 streams are reported as per-field errors (the result
// type is float32); decode those with Decode[float64].
func DecodeFields(ctx context.Context, names []string, bufs [][]byte, workers int) []FieldResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]FieldResult, len(bufs))
	pool.Run(len(bufs), workers, func(i int) {
		if i < len(names) {
			results[i].Name = names[i]
		}
		data, dims, err := Decode[float32](ctx, bufs[i])
		results[i].Data = data
		results[i].Dims = dims
		results[i].Err = err
	})
	return results
}
