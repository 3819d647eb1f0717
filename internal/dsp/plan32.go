package dsp

import (
	"math"
	"sync"
	"sync/atomic"

	"soundboost/internal/obs"
)

// Float32 transform plans for the opt-in single-precision hot path.
// Power-of-two sizes run a complex64 radix-2 butterfly over float32
// twiddle tables — half the memory traffic of the complex128 path on
// top of the real-input packing. Other sizes promote to the float64
// plan on pooled scratch and demote the result; the precision-critical
// callers (signature extraction, triage screening) always use
// NextPow2 sizes, so the fallback is an API completeness path, not a
// hot one. Like PlanFFT, the cache is process-wide: every session,
// stream engine and fleet replica in the process shares one table set
// per size.

// Plan32 is the float32 analogue of Plan. Plans are immutable after
// construction and safe for concurrent use.
type Plan32 struct {
	n int

	// radix-2 path (power-of-two n).
	bitrev  []int
	twidFwd []complex64 // exp(-2*pi*i*k/n), k < n/2
	rsub    *Plan32     // half-length plan driving ForwardReal

	// All other sizes promote through the float64 plan.
	fallback *Plan
}

// plan32Cache maps transform size -> *Plan32.
var plan32Cache sync.Map

// PlanFFT32 returns the cached float32 transform plan for size n,
// building it on first use. The returned plan is shared and read-only.
func PlanFFT32(n int) *Plan32 {
	if p, ok := plan32Cache.Load(n); ok {
		return p.(*Plan32)
	}
	p := newPlan32(n)
	actual, _ := plan32Cache.LoadOrStore(n, p)
	fftPlanCount.Inc()
	return actual.(*Plan32)
}

func newPlan32(n int) *Plan32 {
	p := &Plan32{n: n}
	if n <= 1 {
		return p
	}
	if n&(n-1) != 0 {
		p.fallback = PlanFFT(n)
		return p
	}
	base := PlanFFT(n) // shares the float64 bitrev/twiddle derivation
	p.bitrev = base.bitrev
	p.twidFwd = make([]complex64, len(base.twidFwd))
	for k, w := range base.twidFwd {
		p.twidFwd[k] = complex64(w)
	}
	p.rsub = PlanFFT32(n / 2)
	return p
}

// SpectrumLen returns the number of non-redundant real-input spectrum
// bins: n/2 + 1 for a length-n plan.
func (p *Plan32) SpectrumLen() int { return p.n/2 + 1 }

// radix2 is the iterative in-place forward Cooley-Tukey butterfly —
// the same flat loop structure as the float64 plan at half the memory
// traffic. The butterfly is spelled out in float32 component
// arithmetic because the compiler evaluates complex64 multiplication
// through complex128, which would forfeit the single-precision
// speedup.
func (p *Plan32) radix2(x []complex64) {
	n := p.n
	for i, j := range p.bitrev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	twid := p.twidFwd
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half]
				w := twid[k*stride]
				br, bi := real(b), imag(b)
				wr, wi := real(w), imag(w)
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				ar, ai := real(a), imag(a)
				x[start+k] = complex(ar+tr, ai+ti)
				x[start+k+half] = complex(ar-tr, ai-ti)
			}
		}
	}
}

// ForwardReal computes the DFT of the real signal x (the plan's length),
// returning the non-redundant half spectrum X[0..n/2] — the float32
// analogue of Plan.ForwardReal, packing even/odd samples into one
// half-length complex64 transform. The result is written into out when
// cap(out) >= SpectrumLen(), otherwise a fresh slice is allocated.
func (p *Plan32) ForwardReal(x []float32, out []complex64) []complex64 {
	if len(x) != p.n {
		panic("dsp: plan/input size mismatch")
	}
	if cap(out) >= p.SpectrumLen() {
		out = out[:p.SpectrumLen()]
	} else {
		out = make([]complex64, p.SpectrumLen())
	}
	n := p.n
	if n <= 1 {
		if n == 1 {
			out[0] = complex(x[0], 0)
		}
		return out
	}
	if p.fallback != nil {
		xf := AcquireFloats(n)
		defer ReleaseFloats(xf)
		for i, v := range x {
			xf[i] = float64(v)
		}
		spec := AcquireComplex(p.SpectrumLen())
		defer ReleaseComplex(spec)
		spec = p.fallback.ForwardReal(xf, spec)
		for i, v := range spec {
			out[i] = complex64(v)
		}
		return out
	}
	span := fftTimer.Start()
	defer span.Stop()
	h := n / 2
	z := AcquireComplex64(h)
	defer ReleaseComplex64(z)
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	p.rsub.radix2(z)
	re0, im0 := real(z[0]), imag(z[0])
	out[0] = complex(re0+im0, 0)
	out[h] = complex(re0-im0, 0)
	for k := 1; k < h; k++ {
		zr, zi := real(z[k]), imag(z[k])
		cr, ci := real(z[h-k]), -imag(z[h-k])
		fer, fei := (zr+cr)*0.5, (zi+ci)*0.5
		// Fo = (Z[k]-conj(Z[h-k]))/2i
		for_, foi := (zi-ci)*0.5, (cr-zr)*0.5
		w := p.twidFwd[k]
		wr, wi := real(w), imag(w)
		out[k] = complex(fer+for_*wr-foi*wi, fei+for_*wi+foi*wr)
	}
	return out
}

// BandPower32 sums spectral power over a band of a half spectrum
// produced by Plan32.ForwardReal and returns the band magnitude
// sqrt(sum |X[k]|^2) — the float32 counterpart of Magnitudes +
// BandEnergy fused into one pass with no intermediate slice and one
// square root per band instead of one per bin.
func BandPower32(spec []complex64, nfft int, sampleRate float64, b Band) float64 {
	lo := FrequencyBin(b.Low, nfft, sampleRate)
	hi := FrequencyBin(b.High, nfft, sampleRate)
	if hi >= len(spec) {
		hi = len(spec) - 1
	}
	var sum float32
	for k := lo; k <= hi; k++ {
		re, im := real(spec[k]), imag(spec[k])
		sum += re*re + im*im
	}
	return math.Sqrt(float64(sum))
}

// --- Float32 scratch arenas.

var (
	complex64Pools sync.Map // int -> *sync.Pool of *[]complex64
	float32Pools   sync.Map // int -> *sync.Pool of *[]float32
)

// AcquireComplex64 returns a zeroed scratch []complex64 of length n
// from the arena. Release it with ReleaseComplex64 when done.
func AcquireComplex64(n int) []complex64 {
	arenaAcquire(8 * n)
	poolAny, ok := complex64Pools.Load(n)
	if !ok {
		poolAny, _ = complex64Pools.LoadOrStore(n, &sync.Pool{})
	}
	if v := poolAny.(*sync.Pool).Get(); v != nil {
		buf := *(v.(*[]complex64))
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]complex64, n)
}

// ReleaseComplex64 returns a buffer obtained from AcquireComplex64 to
// the arena. The caller must not use the slice afterwards.
func ReleaseComplex64(buf []complex64) {
	if buf == nil {
		return
	}
	arenaRelease(8 * len(buf))
	if poolAny, ok := complex64Pools.Load(len(buf)); ok {
		poolAny.(*sync.Pool).Put(&buf)
	}
}

// AcquireFloats32 returns a zeroed scratch []float32 of length n from
// the arena. Release it with ReleaseFloats32 when done.
func AcquireFloats32(n int) []float32 {
	arenaAcquire(4 * n)
	poolAny, ok := float32Pools.Load(n)
	if !ok {
		poolAny, _ = float32Pools.LoadOrStore(n, &sync.Pool{})
	}
	if v := poolAny.(*sync.Pool).Get(); v != nil {
		buf := *(v.(*[]float32))
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]float32, n)
}

// ReleaseFloats32 returns a buffer obtained from AcquireFloats32 to the
// arena.
func ReleaseFloats32(buf []float32) {
	if buf == nil {
		return
	}
	arenaRelease(4 * len(buf))
	if poolAny, ok := float32Pools.Load(len(buf)); ok {
		poolAny.(*sync.Pool).Put(&buf)
	}
}

// --- Arena byte accounting.
//
// Every Acquire*/Release* pair adjusts the in-use byte count, exposed
// as obs gauges so a serving process (or a bench run) can watch its
// scratch-allocation budget: dsp.arena.in_use_bytes is the live
// balance, dsp.arena.peak_bytes the high-water mark since start. The
// counts are process-wide — with per-size sync.Pools the peak bounds
// what a session mix can pin.

var (
	arenaInUse      atomic.Int64
	arenaPeak       atomic.Int64
	arenaInUseGauge = obs.Default.Gauge("dsp.arena.in_use_bytes")
	arenaPeakGauge  = obs.Default.Gauge("dsp.arena.peak_bytes")
)

func arenaAcquire(bytes int) {
	v := arenaInUse.Add(int64(bytes))
	arenaInUseGauge.Set(float64(v))
	for {
		peak := arenaPeak.Load()
		if v <= peak {
			return
		}
		if arenaPeak.CompareAndSwap(peak, v) {
			arenaPeakGauge.Set(float64(v))
			return
		}
	}
}

func arenaRelease(bytes int) {
	v := arenaInUse.Add(-int64(bytes))
	arenaInUseGauge.Set(float64(v))
}

// --- Cached float32 analysis windows.

// hann32Cache maps window length -> shared float32 Hann table.
var hann32Cache sync.Map

// CachedHann32 returns the shared float32 Hann window table of length
// n, derived by narrowing the float64 table so both precisions window
// with the same curve. The slice is cached and must be treated as
// read-only.
func CachedHann32(n int) []float32 {
	if w, ok := hann32Cache.Load(n); ok {
		return w.([]float32)
	}
	src := CachedHann(n)
	w := make([]float32, n)
	for i, v := range src {
		w[i] = float32(v)
	}
	actual, _ := hann32Cache.LoadOrStore(n, w)
	return actual.([]float32)
}
