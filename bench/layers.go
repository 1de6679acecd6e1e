package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"qoz"
	"qoz/internal/container"
	"qoz/internal/core"
	"qoz/internal/huffman"
	"qoz/internal/interp"
	"qoz/internal/quant"
	"qoz/store"
)

// sweep is the in-process half of the traced run's layer sweep: it calls
// each layer's public functions on the workload's own fields, each call
// inside its own span, and turns the timings into the per-layer metrics.
// Every measurement is the median of sweepReps calls unless it says
// otherwise; rates are summed over the fields (total bytes ÷ total time).
type sweep struct {
	tr   *tracer
	in   sweepInputs
	work string
	m    map[string]float64

	coreSeconds, coreBytes float64 // one tuned core.Compress per field, for the qoz ratios
}

const sweepReps = 3

// timed returns the median wall time of reps calls of fn, in seconds.
func (s *sweep) timed(name string, reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		sp := s.tr.start("sweep."+name, 0, 0)
		t := time.Now()
		fn()
		d[i] = time.Since(t).Seconds()
		s.tr.end(sp)
	}
	return median(d)
}

// allocated returns the heap bytes and objects fn allocates. Nothing else
// may allocate meanwhile; the sweep runs on one goroutine.
func allocated(fn func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

func must(err error) {
	if err != nil {
		panic(fmt.Errorf("layer sweep: %w", err))
	}
}

func mb(n int) float64 { return float64(n) / 1e6 }

func runSweep(tr *tracer, in sweepInputs, work string) (m map[string]float64, err error) {
	// A failing layer call is a broken build, not a measurement; the sweep
	// has dozens of such calls, so they panic through must and are turned
	// back into one error here.
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	s := &sweep{tr: tr, in: in, work: work, m: make(map[string]float64)}
	s.core()
	s.interpQuantHuffman()
	s.qoz()
	s.store()
	return s.m, nil
}

func (s *sweep) core() {
	var raw, tAuto, tFixed, tAutoB, tFixedB, tDec, tL2 float64
	var points, allocC, allocD uint64
	for _, f := range s.in.fields {
		auto := core.Options{ErrorBound: f.abs}
		fixed := core.Options{ErrorBound: f.abs, Mode: core.ModeFixed, DisableLevelSelect: true}
		var stream []byte
		var err error
		tAuto += s.timed("core.Compress", 1, func() {
			stream, err = core.Compress(f.data, f.dims, auto)
			must(err)
		})
		tFixed += s.timed("core.Compress.fixed", 1, func() {
			_, err := core.Compress(f.data, f.dims, fixed)
			must(err)
		})
		bdims := []int{s.in.brick, s.in.brick, s.in.brick}
		bd := regionOf(f, []int{0, 0, 0}, bdims)
		tAutoB += s.timed("core.Compress.brick", sweepReps, func() {
			_, err := core.Compress(bd, bdims, auto)
			must(err)
		})
		tFixedB += s.timed("core.Compress.brick.fixed", sweepReps, func() {
			_, err := core.Compress(bd, bdims, fixed)
			must(err)
		})
		tDec += s.timed("core.Decompress", sweepReps, func() {
			_, _, err := core.Decompress(stream)
			must(err)
		})
		tL2 += s.timed("core.DecompressLevel2", sweepReps, func() {
			_, _, _, err := core.DecompressLevel(stream, 2)
			must(err)
		})
		b, _ := allocated(func() { core.Compress(f.data, f.dims, auto) })
		allocC += b
		b, _ = allocated(func() { core.Decompress(stream) })
		allocD += b
		raw += mb(len(f.data) * 4)
		points += uint64(len(f.data))
		s.coreBytes += float64(len(stream))
	}
	s.coreSeconds = tAuto
	s.m["core.compress_auto_mbps"] = raw / tAuto
	s.m["core.compress_fixed_mbps"] = raw / tFixed
	s.m["core.tuner_share_field"] = 1 - tFixed/tAuto
	s.m["core.tuner_share_brick"] = 1 - tFixedB/tAutoB
	s.m["core.decompress_mbps"] = raw / tDec
	// Full-resolution bytes of the field per second of level-2 decode, so
	// it reads against decompress_mbps as a speed-up.
	s.m["core.decompress_level2_mbps"] = raw / tL2
	s.m["core.compress_alloc_bytes_per_point"] = float64(allocC) / float64(points)
	s.m["core.decompress_alloc_bytes_per_point"] = float64(allocD) / float64(points)
}

// interpQuantHuffman runs the prediction sweep, the quantiser, the Huffman
// coder and the lossless container by hand over each field — the same steps
// core.Compress takes after tuning, with one cubic interpolator and one
// bound on every level — so each is timed on the real symbol stream.
func (s *sweep) interpQuantHuffman() {
	const anchorStride = 32 // core's default for 3-D fields
	method := interp.Method{Kind: interp.Cubic, Order: interp.Decreasing}
	var pts, tEnc, tDec, tQuant float64
	var symBytes, tHEnc, tHDec, tTable float64
	var bits, syms float64
	var secIn, secOut, tCEnc, tCDec float64
	for _, f := range s.in.fields {
		maxLevel := interp.MaxLevelAnchored(anchorStride)
		anchors := interp.AnchorIndices(f.dims, anchorStride)
		seed := func() []float32 {
			recon := make([]float32, len(f.data))
			for _, idx := range anchors {
				recon[idx] = f.data[idx]
			}
			return recon
		}
		var q *quant.Quantizer
		tEnc += s.timed("interp.LevelPass", sweepReps, func() {
			q = quant.New(f.abs, 0)
			recon := seed()
			for level := maxLevel; level >= 1; level-- {
				interp.LevelPass(recon, f.dims, level, method, func(idx int, pred float64) float32 {
					return q.Quantize(f.data[idx], pred)
				})
			}
		})
		tDec += s.timed("interp.LevelPassDecode", sweepReps, func() {
			deq := quant.NewDequantizer(f.abs, 0, q.Bins, q.Literals)
			recon := seed()
			for level := maxLevel; level >= 1; level-- {
				interp.LevelPassDecode(recon, f.dims, level, method, deq)
			}
		})
		tQuant += s.timed("quant.Quantize", sweepReps, func() {
			qq := quant.New(f.abs, 0)
			qq.Bins = make([]uint32, 0, len(f.data))
			prev := 0.0
			for _, v := range f.data {
				prev = float64(qq.Quantize(v, prev))
			}
		})
		pts += float64(len(f.data)) / 1e6

		var coded []byte
		tHEnc += s.timed("huffman.Encode", sweepReps, func() { coded = huffman.Encode(q.Bins) })
		tHDec += s.timed("huffman.Decode", sweepReps, func() {
			_, err := huffman.Decode(coded)
			must(err)
		})
		symBytes += mb(len(q.Bins) * 4)
		bits += float64(len(coded)) * 8
		syms += float64(len(q.Bins))

		// One table is built per brick on the store's write path, so the
		// table build is timed on a brick's worth of symbols.
		brickSyms := q.Bins[:min(len(q.Bins), s.in.brick*s.in.brick*s.in.brick)]
		tTable += s.timed("huffman.BuildTable", sweepReps, func() { huffman.BuildTable(brickSyms) })

		// The lossless backend sees the Huffman bytes and the literals.
		st := &container.Stream{Codec: container.CodecQoZ, Dims: f.dims, ErrorBound: f.abs, Sections: []container.Section{
			{ID: 1, Data: coded},
			{ID: 2, Data: container.Float32sToBytes(q.Literals)},
		}}
		var packed []byte
		tCEnc += s.timed("container.Encode", sweepReps, func() {
			var err error
			packed, err = container.Encode(st)
			must(err)
		})
		tCDec += s.timed("container.Decode", sweepReps, func() {
			_, err := container.Decode(packed)
			must(err)
		})
		secIn += mb(len(coded) + 4*len(q.Literals))
		secOut += mb(len(packed))
	}
	n := float64(len(s.in.fields))
	s.m["interp.levelpass_encode_mpts"] = pts / tEnc
	s.m["interp.levelpass_decode_mpts"] = pts / tDec
	s.m["quant.quantize_mpts"] = pts / tQuant
	s.m["huffman.encode_mbps"] = symBytes / tHEnc // MB of 4-byte symbols per second
	s.m["huffman.decode_mbps"] = symBytes / tHDec
	s.m["huffman.build_table_ms"] = tTable / n * 1e3
	s.m["huffman.bits_per_symbol"] = bits / syms
	s.m["container.encode_mbps"] = secIn / tCEnc // MB of section payload per second
	s.m["container.decode_mbps"] = secIn / tCDec
	s.m["container.lossless_ratio"] = secOut / secIn
}

func (s *sweep) qoz() {
	ctx := context.Background()
	var raw, tEnc, tDec, tEnc64, tDec64, stream float64
	for _, f := range s.in.fields {
		var buf []byte
		var err error
		tEnc += s.timed("qoz.Encode", 1, func() {
			buf, err = qoz.Encode(ctx, nil, f.data, f.dims, f.opts())
			must(err)
		})
		tDec += s.timed("qoz.Decode", sweepReps, func() {
			_, _, err := qoz.Decode[float32](ctx, buf)
			must(err)
		})
		stream += float64(len(buf))

		wide := widen(f.data)
		var buf64 []byte
		tEnc64 += s.timed("qoz.Encode.f64", 1, func() {
			buf64, err = qoz.Encode(ctx, nil, wide, f.dims, f.opts())
			must(err)
		})
		tDec64 += s.timed("qoz.Decode.f64", 1, func() {
			_, _, err := qoz.Decode[float64](ctx, buf64)
			must(err)
		})
		raw += mb(len(f.data) * 4)
	}
	s.m["qoz.encode_mbps"] = raw / tEnc
	s.m["qoz.decode_mbps"] = raw / tDec
	s.m["qoz.encode_f64_mbps"] = 2 * raw / tEnc64 // raw float64 bytes
	s.m["qoz.decode_f64_mbps"] = 2 * raw / tDec64
	s.m["qoz.stream_vs_core_time_ratio"] = tEnc / s.coreSeconds
	s.m["qoz.stream_vs_core_size_ratio"] = stream / s.coreBytes
}

// stageTimes accumulates a store.StageObserver's callbacks; bricks decode
// on concurrent workers, hence the atomics.
type stageTimes struct {
	fetchNs, decodeNs, fetchBytes, fetches, decodes atomic.Int64
}

func (st *stageTimes) observe(stage store.Stage, d time.Duration, n int64) {
	switch stage {
	case store.StageFetch:
		st.fetchNs.Add(int64(d))
		st.fetchBytes.Add(n)
		st.fetches.Add(1)
	case store.StageDecode:
		st.decodeNs.Add(int64(d))
		st.decodes.Add(1)
	}
}

func (s *sweep) store() {
	ctx := context.Background()
	b := s.in.brick
	brick := []int{b, b, b}
	full := box{hi: [3]int{fieldEdge, fieldEdge, fieldEdge}}
	var raw, tWrite, tWrite1, tWrite64, tAppend, tCodec, tOpen float64
	var fileBytes, payload, bricks float64
	var paths []string
	for i, f := range s.in.fields {
		path := filepath.Join(s.work, fmt.Sprintf("sweep-%d.qozb", i))
		paths = append(paths, path)
		wo := store.WriteOptions{Opts: f.opts(), Brick: brick}
		tWrite += s.timed("store.WriteT", 1, func() { must(writeStoreFile(ctx, path, f.data, f.dims, f.opts(), b)) })

		// WriteT on one worker against the summed codec time of the same
		// bricks: what the store adds on top of compression.
		wo1 := wo
		wo1.Workers = 1
		tWrite1 += s.timed("store.WriteT.1worker", 1, func() {
			var sink bytes.Buffer
			must(store.WriteT(ctx, &sink, f.data, f.dims, wo1))
		})
		absOpts, err := f.opts().ResolveAbs(f.data)
		must(err)
		codec := qoz.MustLookup(qoz.DefaultCodec)
		tCodec += s.timed("codec.Compress.bricks", 1, func() {
			for bi := 0; bi < (fieldEdge/b)*(fieldEdge/b)*(fieldEdge/b); bi++ {
				lo, hi, err := store.BrickBoxIn(f.dims, brick, bi)
				must(err)
				bd := regionOf(f, lo, hi)
				_, err = codec.Compress(ctx, bd, brick, absOpts)
				must(err)
			}
		})

		wide := widen(f.data)
		tWrite64 += s.timed("store.WriteT.f64", 1, func() {
			var sink bytes.Buffer
			must(store.WriteT(ctx, &sink, wide, f.dims, wo))
		})

		mpath := filepath.Join(s.work, fmt.Sprintf("sweep-%d-mutable.qozb", i))
		os.Remove(mpath)
		tAppend += s.timed("store.AppendStepsT", 1, func() {
			mu, err := store.CreateMutable(mpath, []int{0, f.dims[1], f.dims[2]}, store.WriteOptions{Opts: absOpts, Brick: brick})
			must(err)
			rows := b * f.dims[1] * f.dims[2]
			for off := 0; off < len(f.data); off += rows {
				must(store.AppendStepsT(ctx, mu, f.data[off:off+rows]))
			}
			must(mu.Close())
		})

		tOpen += s.timed("store.OpenFile", 5, func() {
			st, err := store.OpenFile(path, store.Options{CacheBytes: -1})
			must(err)
			st.Close()
		})
		st, err := store.OpenFile(path, store.Options{CacheBytes: -1})
		must(err)
		info, err := os.Stat(path)
		must(err)
		fileBytes += float64(info.Size())
		for bi := 0; bi < st.NumBricks(); bi++ {
			lv := st.BrickLevels(bi)
			if len(lv) == 0 {
				must(fmt.Errorf("store %s records no level table", path))
			}
			payload += float64(lv[len(lv)-1].Bytes)
		}
		bricks += float64(st.NumBricks())
		st.Close()
		raw += mb(len(f.data) * 4)
	}
	n := float64(len(s.in.fields))
	s.m["store.write_mbps"] = raw / tWrite
	s.m["store.write_f64_mbps"] = 2 * raw / tWrite64
	s.m["store.append_mbps"] = raw / tAppend
	s.m["store.write_vs_codec_time_ratio"] = tWrite1 / tCodec
	s.m["store.index_bytes_per_brick"] = (fileBytes - payload) / bricks
	s.m["store.open_ms"] = tOpen / n * 1e3

	// Cold reads: no cache, the replay's boxes, stage times from the
	// store's own observer hook.
	open := func(opts store.Options) []*store.Store {
		out := make([]*store.Store, len(paths))
		for i, p := range paths {
			st, err := store.OpenFile(p, opts)
			must(err)
			out[i] = st
		}
		return out
	}
	closeAll := func(ss []*store.Store) {
		for _, st := range ss {
			st.Close()
		}
	}
	cold := open(store.Options{CacheBytes: -1})
	var stages stageTimes
	octx := store.WithStageObserver(ctx, stages.observe)
	coldBoxes := s.in.boxes[:min(len(s.in.boxes), 64)]
	var served int
	tCold := s.timed("store.ReadRegion.cold", 1, func() {
		for _, bx := range coldBoxes {
			out, err := cold[bx.field].ReadRegion(octx, bx.lo[:], bx.hi[:])
			must(err)
			served += len(out) * 4
		}
	})
	s.m["store.read_cold_mbps"] = mb(served) / tCold
	s.m["store.stage_fetch_ms_per_brick"] = float64(stages.fetchNs.Load()) / 1e6 / float64(stages.fetches.Load())
	s.m["store.stage_decode_ms_per_brick"] = float64(stages.decodeNs.Load()) / 1e6 / float64(stages.decodes.Load())

	// Level-2 reads of whole fields against full reads of the same.
	var l1, l2 stageTimes
	var tL2 float64
	for _, st := range cold {
		c1 := store.WithStageObserver(ctx, l1.observe)
		_, err := st.ReadRegion(c1, full.lo[:], full.hi[:])
		must(err)
		c2 := store.WithStageObserver(ctx, l2.observe)
		tL2 += s.timed("store.ReadRegionLevel2", sweepReps, func() {
			_, _, err := st.ReadRegionLevel(c2, full.lo[:], full.hi[:], 2)
			must(err)
		})
	}
	s.m["store.read_level2_mbps"] = raw / tL2 // full-resolution bytes covered per second
	s.m["store.level2_fetched_bytes_ratio"] = float64(l2.fetchBytes.Load()) / float64(sweepReps) / float64(l1.fetchBytes.Load())

	// Queries: a threshold above every value resolves from the statistics
	// index alone; a threshold at the field's mid-range must decode.
	var tPruned, tScan, pruned, total float64
	for i, st := range cold {
		lo, hi := valueRange(s.in.fields[i].data)
		tPruned += s.timed("store.Query.pruned", sweepReps, func() {
			r, err := st.Query(ctx, store.QueryRequest{Op: store.QueryGT, Value: hi + (hi-lo)*0.01})
			must(err)
			pruned, total = pruned+float64(r.BricksPruned), total+float64(r.BricksTotal)
		})
		tScan += s.timed("store.Query.scan", 1, func() {
			_, err := st.Query(ctx, store.QueryRequest{Op: store.QueryGT, Value: (lo + hi) / 2})
			must(err)
		})
	}
	closeAll(cold)
	s.m["store.query_pruned_ms"] = tPruned / n * 1e3
	s.m["store.query_scan_ms"] = tScan / n * 1e3
	s.m["store.query_pruned_ratio"] = pruned / total

	// Cached reads: everything fits and is warm; ReadRegionInto serves
	// from the cache on the calling goroutine.
	hot := open(store.Options{Cache: store.NewCache(1 << 30)})
	for _, st := range hot {
		_, err := st.ReadRegion(ctx, full.lo[:], full.hi[:])
		must(err)
	}
	hb := box{lo: [3]int{b / 2, b / 2, b / 2}, hi: [3]int{b/2 + b, b/2 + b, b/2 + b}}
	dst := make([]float32, hb.points())
	const hotReads = 200
	var objects uint64
	tHot := s.timed("store.ReadRegionInto.cached", sweepReps, func() {
		_, objects = allocated(func() {
			for i := 0; i < hotReads; i++ {
				must(hot[i%len(hot)].ReadRegionInto(ctx, dst, hb.lo[:], hb.hi[:]))
			}
		})
	})
	closeAll(hot)
	s.m["store.read_cached_mbps"] = mb(hotReads*len(dst)*4) / tHot
	s.m["store.read_cached_allocs_per_op"] = float64(objects) / hotReads

	// The workload's request sequence replayed in-process against one
	// shared cache of the workload's budget, as qozd mounts the stores.
	replay := open(store.Options{Cache: store.NewCache(s.in.cache)})
	served = 0
	s.timed("store.ReadRegion.replay", 1, func() {
		for _, bx := range s.in.boxes {
			out, err := replay[bx.field].ReadRegion(ctx, bx.lo[:], bx.hi[:])
			must(err)
			served += len(out) * 4
		}
	})
	var hits, reads, decoded float64
	for _, st := range replay {
		x := st.Stats()
		hits, reads, decoded = hits+float64(x.CacheHits), reads+float64(x.BricksRead), decoded+float64(x.BricksDecoded)
	}
	closeAll(replay)
	s.m["store.cache_hit_ratio"] = hits / reads
	s.m["store.decode_amplification"] = decoded * float64(b*b*b*4) / float64(served)
}

// regionOf copies the box [lo, hi) out of a field.
func regionOf(f *field, lo, hi []int) []float32 {
	out := make([]float32, 0, (hi[0]-lo[0])*(hi[1]-lo[1])*(hi[2]-lo[2]))
	for z := lo[0]; z < hi[0]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			off := (z*f.dims[1]+y)*f.dims[2] + lo[2]
			out = append(out, f.data[off:off+hi[2]-lo[2]]...)
		}
	}
	return out
}

func valueRange(v []float32) (lo, hi float64) {
	lo, hi = float64(v[0]), float64(v[0])
	for _, x := range v {
		lo, hi = min(lo, float64(x)), max(hi, float64(x))
	}
	return lo, hi
}
