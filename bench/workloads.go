package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"qoz"
	"qoz/store"
)

// fieldEdge is the edge of every input field: 128³ float32 points, 8 MiB.
// One size for all four workloads keeps their numbers comparable: a field
// encode, the same field written as bricks, and the same field served.
const fieldEdge = 128

// workload is what the harness needs from each of the four workloads.
// setUp and tearDown may run several times in a process (setup_s is the
// median of repeated set-ups); prepare runs once, after the last setUp.
type workload interface {
	// setUp generates the inputs from the seed, builds everything the
	// timed phase needs, and runs the warm-up ops. Its wall time is setup_s.
	setUp() error
	tearDown()
	// prepare builds what verification needs (untimed).
	prepare() error
	clients() int
	pids() []int
	// opCycle is the period with which the ops of one client repeat in
	// kind (1 when every op is the same kind of work).
	opCycle() int
	op(tr *tracer) opFunc
	// verify checks every distinct output the timed phase produced or
	// served against the original field under the absolute bound, and
	// returns stored bytes per raw byte and the mean PSNR.
	verify() (ratio, psnr float64, err error)
	// sweepInputs names the data the layer sweep runs on.
	sweepInputs() sweepInputs
}

type sweepInputs struct {
	fields []*field
	brick  int   // brick edge the workload stores or serves with
	boxes  []box // request sequence for the in-process cache replay
	cache  int64 // decoded-brick cache budget of that replay
}

func newWorkload(cfg config, p *procs) (workload, error) {
	switch cfg.workload {
	case "encode_field":
		return &codecWorkload{cfg: cfg, p: p}, nil
	case "put_bricked":
		return &codecWorkload{cfg: cfg, p: p, brick: 64}, nil
	case "serve_scan":
		return &serveWorkload{cfg: cfg, p: p, brick: 32, cache: 2 << 20, nClient: 2}, nil
	case "gateway_hot":
		return &serveWorkload{cfg: cfg, p: p, brick: 32, cache: 256 << 20, gateway: true, nClient: 1}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"encode_field", "put_bricked", "serve_scan", "gateway_hot"}

// served reports whether the named workload is a chain of processes rather
// than calls inside this one; its machine index uses other kernels (ref.go).
func served(name string) bool { return name == "serve_scan" || name == "gateway_hot" }

// codecWorkload is the two in-process write workloads. With brick == 0 an
// op is qoz.Encode of a whole field (encode_field); otherwise it is
// store.WriteT of the field into brick³ bricks in a file (put_bricked).
type codecWorkload struct {
	cfg   config
	p     *procs
	brick int

	fields []*field
	cycle  []*variant // op seq runs cycle[seq % len(cycle)]
}

// variant is one distinct input of a codec workload; every op on it must
// produce the same bytes.
type variant struct {
	f    *field
	f64  []float64 // the float64 widening, when this variant stores doubles
	path string    // store file (put_bricked)

	ops    int
	crc    uint32
	stream []byte // first output (encode_field), kept for the decode check
	stored int64
}

func (v *variant) rawBytes() int64 {
	if v.f64 != nil {
		return int64(len(v.f64)) * 8
	}
	return v.f.rawBytes()
}

func (w *codecWorkload) setUp() error {
	dims := []int{fieldEdge, fieldEdge, fieldEdge}
	fields, err := makeFields([]string{"miranda", "nyx", "hurricane"}, dims, w.cfg.seed)
	if err != nil {
		return err
	}
	w.fields, w.cycle = fields, nil
	for _, f := range fields {
		w.cycle = append(w.cycle, &variant{f: f, path: filepath.Join(w.p.work, "put-"+f.name+"-f32.qozb")})
	}
	if w.brick > 0 {
		// Ops cycle with period 9: each field twice as float32, then each
		// once as float64 (the envelope path), so every third op is a
		// double-precision write.
		w.cycle = append(w.cycle, w.cycle[:3]...)
		for _, f := range fields {
			w.cycle = append(w.cycle, &variant{f: f, f64: widen(f.data),
				path: filepath.Join(w.p.work, "put-"+f.name+"-f64.qozb")})
		}
	}
	// Warm-up: every distinct variant once (pools, page cache, heap size).
	op := w.op(nil)
	seen := map[*variant]bool{}
	for seq, v := range w.cycle {
		if seen[v] {
			continue
		}
		seen[v] = true
		if _, err := op(0, seq, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

func (w *codecWorkload) tearDown()      { w.fields, w.cycle = nil, nil }
func (w *codecWorkload) prepare() error { return nil }
func (w *codecWorkload) clients() int   { return 1 }
func (w *codecWorkload) opCycle() int   { return len(w.cycle) }
func (w *codecWorkload) pids() []int    { return []int{os.Getpid()} }

func (w *codecWorkload) op(tr *tracer) opFunc {
	ctx := context.Background()
	return func(_, seq int, origin time.Time) (sample, error) {
		v := w.cycle[seq%len(w.cycle)]
		root := tr.start("op", 0, seq)
		var out []byte
		var err error
		t0 := time.Since(origin)
		if w.brick == 0 {
			sp := tr.start("qoz.Encode", root, seq)
			out, err = qoz.Encode(ctx, nil, v.f.data, v.f.dims, v.f.opts())
			tr.end(sp)
		} else {
			sp := tr.start("store.WriteT", root, seq)
			err = w.put(ctx, v)
			tr.end(sp)
		}
		t1 := time.Since(origin)
		tr.end(root)
		if err != nil {
			return sample{}, err
		}
		if w.brick > 0 {
			if out, err = os.ReadFile(v.path); err != nil {
				return sample{}, err
			}
		}
		crc := crc32.ChecksumIEEE(out)
		if v.ops == 0 {
			v.crc, v.stored = crc, int64(len(out))
			if w.brick == 0 {
				v.stream = out
			}
		} else if crc != v.crc {
			return sample{}, fmt.Errorf("%s: output CRC %08x differs from the first op's %08x", v.f.name, crc, v.crc)
		}
		v.ops++
		return sample{start: t0, end: t1, bytes: v.rawBytes()}, nil
	}
}

func (w *codecWorkload) put(ctx context.Context, v *variant) error {
	if v.f64 != nil {
		return writeStoreFile(ctx, v.path, v.f64, v.f.dims, v.f.opts(), w.brick)
	}
	return writeStoreFile(ctx, v.path, v.f.data, v.f.dims, v.f.opts(), w.brick)
}

func (w *codecWorkload) verify() (ratio, psnr float64, err error) {
	ctx := context.Background()
	var stored, raw int64
	n := 0
	seen := map[*variant]bool{}
	for _, v := range w.cycle {
		if seen[v] || v.ops == 0 {
			continue
		}
		seen[v] = true
		var p float64
		switch {
		case w.brick == 0:
			rec, _, derr := qoz.Decode[float32](ctx, v.stream)
			if derr != nil {
				return 0, 0, derr
			}
			p, err = checkRecon(v.f.data, rec, v.f.abs)
		case v.f64 != nil:
			p, err = verifyStore(ctx, v.path, v.f64, v.f.abs)
		default:
			p, err = verifyStore(ctx, v.path, v.f.data, v.f.abs)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", filepath.Base(v.path), err)
		}
		stored, raw, psnr, n = stored+v.stored, raw+v.rawBytes(), psnr+p, n+1
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no output to verify")
	}
	return float64(stored) / float64(raw), psnr / float64(n), nil
}

// verifyStore opens a store file without a cache, decodes the whole field
// and checks it against the original.
func verifyStore[T qoz.Float](ctx context.Context, path string, orig []T, abs float64) (float64, error) {
	s, err := store.OpenFile(path, store.Options{CacheBytes: -1})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	rec, err := store.ReadRegionT[T](ctx, s, []int{0, 0, 0}, s.Dims())
	if err != nil {
		return 0, err
	}
	return checkRecon(orig, rec, abs)
}

func (w *codecWorkload) sweepInputs() sweepInputs {
	brick := w.brick
	if brick == 0 {
		brick = 64 // store.DefaultBrick for these fields
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	return sweepInputs{
		fields: w.fields[:2],
		brick:  brick,
		boxes:  scanBoxes(rng, replayOps, 2, fieldEdge, brick),
		cache:  2 * w.fields[0].rawBytes() / 8, // an eighth of the two-field working set
	}
}

// replayOps is how many requests the in-process cache replay runs.
const replayOps = 128
