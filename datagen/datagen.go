// Package datagen synthesizes deterministic scientific-looking test fields
// standing in for the six SDRBench datasets used in the QoZ paper (RTM,
// Miranda, CESM-ATM, SCALE-LETKF, NYX, Hurricane-Isabel). Real datasets are
// hundreds of gigabytes and not redistributable here; each generator
// reproduces the qualitative property of its dataset that drives the
// paper's compression results, named in each generator's comment. All
// generators are fully deterministic for a given seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"qoz/internal/fft"
)

// Dataset is a named flat field with its spatial dimensions (row-major,
// last dimension fastest).
type Dataset struct {
	Name string
	Data []float32
	Dims []int
}

// Len returns the number of points in the dataset.
func (d Dataset) Len() int { return len(d.Data) }

// String implements fmt.Stringer.
func (d Dataset) String() string { return fmt.Sprintf("%s%v", d.Name, d.Dims) }

// Default dimensions keep the full experiment suite laptop-friendly; the
// paper's originals (its Table II) are RTM 449×449×235, Miranda
// 256×384×384, CESM-ATM 1800×3600, SCALE-LETKF 98×1200×1200, NYX 512³ and
// Hurricane 100×500×500. Pass explicit dims to any generator for other
// sizes.
var (
	DefaultRTMDims     = []int{96, 96, 64}
	DefaultMirandaDims = []int{64, 96, 96}
	DefaultCESMDims    = []int{450, 900}
	DefaultLETKFDims   = []int{48, 256, 256}
	DefaultNYXDims     = []int{96, 96, 96}
	DefaultHurrDims    = []int{48, 224, 224}
)

func pick(dims, def []int) []int {
	if len(dims) == 0 {
		return append([]int(nil), def...)
	}
	return append([]int(nil), dims...)
}

// RTM mimics a reverse-time-migration seismic wavefield: expanding damped
// wavefronts from several sources over a layered velocity background. The
// field is oscillatory in a moving band and near-zero elsewhere, which is
// the regime where bounded-range interpolation (anchor points) pays off.
func RTM(dims ...int) Dataset {
	d := pick(dims, DefaultRTMDims)
	nz, ny, nx := d[0], d[1], d[2]
	data := make([]float32, nz*ny*nx)
	rng := rand.New(rand.NewSource(101))
	type src struct{ z, y, x, t, k float64 }
	sources := make([]src, 4)
	for i := range sources {
		sources[i] = src{
			z: rng.Float64() * float64(nz),
			y: rng.Float64() * float64(ny),
			x: rng.Float64() * float64(nx),
			t: (0.25 + 0.5*rng.Float64()) * float64(min3(nz, ny, nx)),
			k: 0.35 + 0.25*rng.Float64(),
		}
	}
	idx := 0
	for z := 0; z < nz; z++ {
		layer := 1 + 0.2*math.Sin(float64(z)/9)
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				var v float64
				for _, s := range sources {
					dz := float64(z) - s.z
					dy := float64(y) - s.y
					dx := float64(x) - s.x
					r := math.Sqrt(dz*dz+dy*dy+dx*dx) * layer
					// Ricker-like wavefront centered at radius s.t.
					u := (r - s.t) * s.k
					v += (1 - 2*u*u) * math.Exp(-u*u) / (1 + 0.02*r)
				}
				data[idx] = float32(v)
				idx++
			}
		}
	}
	return Dataset{Name: "RTM", Data: data, Dims: d}
}

// Miranda mimics a radiation-hydrodynamics turbulent-mixing field: a
// quiescent smooth region separated from a turbulent region by a wavy
// mixing interface. The strong regional variation of smoothness is what
// makes anchor points and level-adapted interpolation win big on Miranda
// in the paper (Table III, Fig. 8).
func Miranda(dims ...int) Dataset {
	d := pick(dims, DefaultMirandaDims)
	nz, ny, nx := d[0], d[1], d[2]
	turb := grf3D(nz, ny, nx, 2.6, 202)
	data := make([]float32, nz*ny*nx)
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				// Interface height oscillates across (y, x).
				h := 0.55*float64(nz) +
					4*math.Sin(float64(y)/17) + 3*math.Cos(float64(x)/23)
				// Mixing fraction: 0 below the interface, 1 above, smooth.
				m := 0.5 * (1 + math.Tanh((float64(z)-h)/4))
				base := 1.5 + math.Tanh((float64(z)-h)/10) // density jump
				v := base + 0.6*m*(1-m)*4*turb[idx]        // turbulence localized at interface
				data[idx] = float32(v)
				idx++
			}
		}
	}
	return Dataset{Name: "Miranda", Data: data, Dims: d}
}

// CESMATM mimics a 2D atmosphere field from a climate model: smooth zonal
// (latitudinal) bands, a few storm systems, and mild small-scale texture.
func CESMATM(dims ...int) Dataset {
	d := pick(dims, DefaultCESMDims)
	ny, nx := d[0], d[1]
	tex := grf2D(ny, nx, 2.2, 303)
	rng := rand.New(rand.NewSource(304))
	type storm struct{ y, x, r, amp float64 }
	storms := make([]storm, 12)
	for i := range storms {
		storms[i] = storm{
			y:   rng.Float64() * float64(ny),
			x:   rng.Float64() * float64(nx),
			r:   8 + 30*rng.Float64(),
			amp: 0.5 + rng.Float64(),
		}
	}
	data := make([]float32, ny*nx)
	idx := 0
	for y := 0; y < ny; y++ {
		lat := (float64(y)/float64(ny-1) - 0.5) * math.Pi
		band := math.Cos(lat) + 0.3*math.Cos(3*lat)
		for x := 0; x < nx; x++ {
			v := band + 0.08*tex[idx]
			for _, s := range storms {
				dy := float64(y) - s.y
				dx := wrapDelta(float64(x)-s.x, float64(nx))
				v += s.amp * math.Exp(-(dy*dy+dx*dx)/(2*s.r*s.r))
			}
			data[idx] = float32(v)
			idx++
		}
	}
	return Dataset{Name: "CESM-ATM", Data: data, Dims: d}
}

// ScaleLETKF mimics a regional weather-model field: vertically layered
// structure with a sharp moving front and moderate noise.
func ScaleLETKF(dims ...int) Dataset {
	d := pick(dims, DefaultLETKFDims)
	nz, ny, nx := d[0], d[1], d[2]
	tex := grf2D(ny, nx, 2.0, 404)
	data := make([]float32, nz*ny*nx)
	idx := 0
	for z := 0; z < nz; z++ {
		lapse := 1 - 0.6*float64(z)/float64(nz) // temperature-like decay
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				// Front: a tanh ridge sweeping diagonally, tilting with height.
				fpos := 0.4*float64(nx) + 0.2*float64(y) + 1.5*float64(z)
				front := math.Tanh((float64(x) - fpos) / 6)
				v := lapse*(2+front) + 0.15*tex[y*nx+x]*lapse +
					0.2*math.Sin(float64(y)/21+float64(z)/7)
				data[idx] = float32(v)
				idx++
			}
		}
	}
	return Dataset{Name: "SCALE-LETKF", Data: data, Dims: d}
}

// NYX mimics a cosmological baryon-density field: the exponential of a
// Gaussian random field, giving the spiky, high-dynamic-range distribution
// that limits interpolation gains in the paper (Table III shows small
// improvements on NYX).
func NYX(dims ...int) Dataset {
	d := pick(dims, DefaultNYXDims)
	nz, ny, nx := d[0], d[1], d[2]
	g := grf3D(nz, ny, nx, 1.8, 505)
	data := make([]float32, nz*ny*nx)
	for i, v := range g {
		data[i] = float32(math.Exp(2.2 * v)) // lognormal density
	}
	return Dataset{Name: "NYX", Data: data, Dims: d}
}

// Hurricane mimics one field of the Hurricane-Isabel simulation: a strong
// vortex with spiral rain bands and background shear flow.
func Hurricane(dims ...int) Dataset {
	d := pick(dims, DefaultHurrDims)
	nz, ny, nx := d[0], d[1], d[2]
	tex := grf2D(ny, nx, 2.1, 606)
	data := make([]float32, nz*ny*nx)
	cy, cx := 0.55*float64(ny), 0.45*float64(nx)
	idx := 0
	for z := 0; z < nz; z++ {
		decay := math.Exp(-float64(z) / (0.7 * float64(nz)))
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				dy := float64(y) - cy
				dx := float64(x) - cx
				r := math.Sqrt(dy*dy + dx*dx)
				theta := math.Atan2(dy, dx)
				// Rankine vortex tangential speed.
				rc := 12.0
				var speed float64
				if r < rc {
					speed = r / rc
				} else {
					speed = rc / r * (1 + 0.2*math.Sin(2*theta-0.3*math.Log(1+r)))
				}
				bands := 0.3 * math.Sin(3*theta-0.25*r) * math.Exp(-r/(0.4*float64(nx)))
				v := 40*speed*decay + 8*bands*decay +
					0.1*float64(y)/float64(ny) + 1.5*tex[y*nx+x]*0.2
				data[idx] = float32(v)
				idx++
			}
		}
	}
	return Dataset{Name: "Hurricane", Data: data, Dims: d}
}

// All returns the six standard datasets at their default sizes, in the
// order used throughout the paper's tables.
func All() []Dataset {
	return []Dataset{RTM(), Miranda(), CESMATM(), ScaleLETKF(), NYX(), Hurricane()}
}

// AllSmall returns reduced-size variants of the six datasets for unit and
// integration tests.
func AllSmall() []Dataset {
	return []Dataset{
		RTM(32, 32, 24),
		Miranda(24, 32, 32),
		CESMATM(96, 160),
		ScaleLETKF(16, 64, 64),
		NYX(32, 32, 32),
		Hurricane(12, 64, 64),
	}
}

// ByName returns the default-size dataset with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// Names lists the standard dataset names in table order.
func Names() []string {
	return []string{"RTM", "Miranda", "CESM-ATM", "SCALE-LETKF", "NYX", "Hurricane"}
}

// wrapDelta maps a periodic coordinate difference into [-n/2, n/2).
func wrapDelta(d, n float64) float64 {
	for d >= n/2 {
		d -= n
	}
	for d < -n/2 {
		d += n
	}
	return d
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// grf3D synthesizes a real 3D Gaussian random field with isotropic power
// spectrum |A(k)| ~ (1+|k|^2)^(-slope/2), normalized to unit standard
// deviation, cropped from a power-of-two synthesis cube.
func grf3D(nz, ny, nx int, slope float64, seed int64) []float64 {
	pz, py, px := nextPow2(nz), nextPow2(ny), nextPow2(nx)
	rng := rand.New(rand.NewSource(seed))
	spec := make([]complex128, pz*py*px)
	for z := 0; z < pz; z++ {
		kz := freq(z, pz)
		for y := 0; y < py; y++ {
			ky := freq(y, py)
			for x := 0; x < px; x++ {
				kx := freq(x, px)
				k2 := kz*kz + ky*ky + kx*kx
				amp := math.Pow(1+k2, -slope/2)
				re := rng.NormFloat64() * amp
				im := rng.NormFloat64() * amp
				spec[(z*py+y)*px+x] = complex(re, im)
			}
		}
	}
	if err := fft.Inverse3D(spec, pz, py, px); err != nil {
		panic(err) // dims are powers of two by construction
	}
	out := make([]float64, nz*ny*nx)
	var mean, m2 float64
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := real(spec[(z*py+y)*px+x])
				out[i] = v
				mean += v
				i++
			}
		}
	}
	mean /= float64(len(out))
	for _, v := range out {
		m2 += (v - mean) * (v - mean)
	}
	std := math.Sqrt(m2 / float64(len(out)))
	if std == 0 {
		std = 1
	}
	for i := range out {
		out[i] = (out[i] - mean) / std
	}
	return out
}

// grf2D is the 2D analog of grf3D.
func grf2D(ny, nx int, slope float64, seed int64) []float64 {
	field := grf3D(1, ny, nx, slope, seed)
	return field
}

// freq maps an FFT bin index to a signed integer frequency.
func freq(i, n int) float64 {
	if i <= n/2 {
		return float64(i)
	}
	return float64(i - n)
}
