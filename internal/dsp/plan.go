package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"soundboost/internal/obs"
)

// Stage metrics, resolved once at init. Recording is gated by
// obs.Enable, so the disabled path costs one atomic load per transform.
var (
	fftTimer      = obs.Default.Timer("dsp.fft.transform")
	fftPlanCount  = obs.Default.Counter("dsp.fft.plans_built")
	fftBluesteins = obs.Default.Counter("dsp.fft.bluestein_transforms")
)

// Plan holds everything size-dependent an FFT of length n needs: the
// bit-reversal permutation, forward and inverse twiddle-factor tables, and
// (for non-power-of-two lengths) the precomputed Bluestein chirp and its
// transformed convolution kernel. Plans are immutable after construction
// and safe for concurrent use; PlanFFT caches one plan per size, so the
// whole pipeline shares tables instead of recomputing cmplx.Exp chains on
// every window.
type Plan struct {
	n int

	// radix-2 path (power-of-two n).
	bitrev  []int
	twidFwd []complex128 // exp(-2*pi*i*k/n), k < n/2
	twidInv []complex128 // exp(+2*pi*i*k/n), k < n/2
	rsub    *Plan        // half-length plan driving ForwardReal/InverseReal

	// Bluestein path (all other n).
	bs *bluesteinPlan
}

// bluesteinPlan precomputes the chirp-z reduction of an n-point DFT to an
// m-point power-of-two convolution.
type bluesteinPlan struct {
	m       int
	sub     *Plan        // radix-2 plan of size m
	wFwd    []complex128 // chirp exp(-i*pi*k^2/n)
	wInv    []complex128 // chirp exp(+i*pi*k^2/n)
	kernFwd []complex128 // FFT of the conjugate forward chirp, padded to m
	kernInv []complex128 // FFT of the conjugate inverse chirp, padded to m
}

// planCache maps transform size -> *Plan.
var planCache sync.Map

// PlanFFT returns the cached transform plan for size n, building it on
// first use. The returned plan is shared and read-only.
func PlanFFT(n int) *Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	fftPlanCount.Inc()
	return actual.(*Plan)
}

func newPlan(n int) *Plan {
	p := &Plan{n: n}
	if n <= 1 {
		return p
	}
	if n&(n-1) == 0 {
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		p.bitrev = make([]int, n)
		for i := 0; i < n; i++ {
			p.bitrev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		}
		half := n / 2
		p.twidFwd = make([]complex128, half)
		p.twidInv = make([]complex128, half)
		for k := 0; k < half; k++ {
			angle := 2 * math.Pi * float64(k) / float64(n)
			p.twidFwd[k] = cmplx.Exp(complex(0, -angle))
			p.twidInv[k] = cmplx.Exp(complex(0, angle))
		}
		// Safe recursion: newPlan runs outside the cache LoadOrStore.
		p.rsub = PlanFFT(half)
		return p
	}
	p.bs = newBluesteinPlan(n)
	return p
}

func newBluesteinPlan(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bp := &bluesteinPlan{m: m, sub: PlanFFT(m)}
	bp.wFwd = make([]complex128, n)
	bp.wInv = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k can overflow for huge n; mod 2n keeps the phase identical.
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := math.Pi * float64(kk) / float64(n)
		bp.wFwd[k] = cmplx.Exp(complex(0, -angle))
		bp.wInv[k] = cmplx.Exp(complex(0, angle))
	}
	kernel := func(w []complex128) []complex128 {
		b := make([]complex128, m)
		for k := 0; k < n; k++ {
			b[k] = cmplx.Conj(w[k])
		}
		for k := 1; k < n; k++ {
			b[m-k] = cmplx.Conj(w[k])
		}
		bp.sub.radix2(b, false)
		return b
	}
	bp.kernFwd = kernel(bp.wFwd)
	bp.kernInv = kernel(bp.wInv)
	return bp
}

// Forward computes the in-place DFT of x, which must have the plan's length.
func (p *Plan) Forward(x []complex128) { p.Transform(x, false) }

// Transform runs the planned transform in place. Inverse transforms
// include the 1/N normalization.
func (p *Plan) Transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic("dsp: plan/input size mismatch")
	}
	if p.n <= 1 {
		return
	}
	span := fftTimer.Start()
	defer span.Stop()
	if p.bs == nil {
		p.radix2(x, inverse)
	} else {
		fftBluesteins.Inc()
		p.bluestein(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(p.n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// radix2 is the iterative in-place Cooley-Tukey butterfly over the
// precomputed tables. Normalization is the caller's responsibility.
func (p *Plan) radix2(x []complex128, inverse bool) {
	n := p.n
	for i, j := range p.bitrev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	twid := p.twidFwd
	if inverse {
		twid = p.twidInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * twid[k*stride]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// bluestein runs the chirp-z reduction through the plan's power-of-two
// sub-plan, using the scratch arena for the convolution buffer.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	bp := p.bs
	w, kern := bp.wFwd, bp.kernFwd
	if inverse {
		w, kern = bp.wInv, bp.kernInv
	}
	a := AcquireComplex(bp.m)
	defer ReleaseComplex(a)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * w[k]
	}
	bp.sub.radix2(a, false)
	for i := range a {
		a[i] *= kern[i]
	}
	bp.sub.radix2(a, true)
	scale := complex(1/float64(bp.m), 0)
	for k := 0; k < p.n; k++ {
		x[k] = a[k] * scale * w[k]
	}
}

// --- Scratch-buffer arena.

// complexPools and floatPools hold per-size sync.Pools of scratch slices.
// Transform sizes in a run form a tiny set (a few window/NFFT sizes), so a
// map keyed by length stays small.
var (
	complexPools sync.Map // int -> *sync.Pool of *[]complex128
	floatPools   sync.Map // int -> *sync.Pool of *[]float64
)

// AcquireComplex returns a zeroed scratch []complex128 of length n from
// the arena. Release it with ReleaseComplex when done.
func AcquireComplex(n int) []complex128 {
	arenaAcquire(16 * n)
	poolAny, ok := complexPools.Load(n)
	if !ok {
		poolAny, _ = complexPools.LoadOrStore(n, &sync.Pool{})
	}
	pool := poolAny.(*sync.Pool)
	if v := pool.Get(); v != nil {
		buf := *(v.(*[]complex128))
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]complex128, n)
}

// ReleaseComplex returns a buffer obtained from AcquireComplex to the
// arena. The caller must not use the slice afterwards.
func ReleaseComplex(buf []complex128) {
	if buf == nil {
		return
	}
	arenaRelease(16 * len(buf))
	if poolAny, ok := complexPools.Load(len(buf)); ok {
		poolAny.(*sync.Pool).Put(&buf)
	}
}

// AcquireFloats returns a zeroed scratch []float64 of length n from the
// arena. Release it with ReleaseFloats when done.
func AcquireFloats(n int) []float64 {
	arenaAcquire(8 * n)
	poolAny, ok := floatPools.Load(n)
	if !ok {
		poolAny, _ = floatPools.LoadOrStore(n, &sync.Pool{})
	}
	pool := poolAny.(*sync.Pool)
	if v := pool.Get(); v != nil {
		buf := *(v.(*[]float64))
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]float64, n)
}

// ReleaseFloats returns a buffer obtained from AcquireFloats to the arena.
func ReleaseFloats(buf []float64) {
	if buf == nil {
		return
	}
	arenaRelease(8 * len(buf))
	if poolAny, ok := floatPools.Load(len(buf)); ok {
		poolAny.(*sync.Pool).Put(&buf)
	}
}

// --- Cached analysis windows.

// hannCache maps window length -> shared Hann table.
var hannCache sync.Map

// CachedHann returns the shared Hann window table of length n. The slice
// is cached and must be treated as read-only; use Hann for a private copy.
func CachedHann(n int) []float64 {
	if w, ok := hannCache.Load(n); ok {
		return w.([]float64)
	}
	w, _ := hannCache.LoadOrStore(n, Hann(n))
	return w.([]float64)
}
