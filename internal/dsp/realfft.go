package dsp

import "math/cmplx"

// Real-input transforms on the Plan API. A real signal's spectrum is
// conjugate-symmetric, so only the n/2+1 non-redundant bins are
// computed and returned. For power-of-two sizes the transform packs the
// even/odd samples into one complex FFT of half the length — the
// classic split that halves butterfly work and memory traffic versus
// transforming the real signal as complex data with zero imaginary
// parts. Other sizes fall back to the plan's full complex transform on
// pooled scratch.

// SpectrumLen returns the number of non-redundant spectrum bins a
// real-input transform of the plan's length n produces: n/2 + 1.
func (p *Plan) SpectrumLen() int { return p.n/2 + 1 }

// ForwardReal computes the DFT of the real signal x (the plan's length),
// returning the non-redundant half spectrum X[0..n/2]. The result is
// written into out when cap(out) >= SpectrumLen(), otherwise a fresh
// slice is allocated. x is left untouched.
func (p *Plan) ForwardReal(x []float64, out []complex128) []complex128 {
	if len(x) != p.n {
		panic("dsp: plan/input size mismatch")
	}
	if cap(out) >= p.SpectrumLen() {
		out = out[:p.SpectrumLen()]
	} else {
		out = make([]complex128, p.SpectrumLen())
	}
	n := p.n
	if n <= 1 {
		if n == 1 {
			out[0] = complex(x[0], 0)
		}
		return out
	}
	if p.bs != nil || n&(n-1) != 0 {
		// Non-power-of-two: full complex transform on pooled scratch.
		buf := AcquireComplex(n)
		defer ReleaseComplex(buf)
		for i, v := range x {
			buf[i] = complex(v, 0)
		}
		p.Transform(buf, false)
		copy(out, buf[:p.SpectrumLen()])
		return out
	}
	span := fftTimer.Start()
	defer span.Stop()
	h := n / 2
	z := AcquireComplex(h)
	defer ReleaseComplex(z)
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	p.rsub.radix2(z, false)
	// Untangle: with Z the half-length FFT of the packed signal,
	// Fe[k] = (Z[k]+conj(Z[h-k]))/2 and Fo[k] = (Z[k]-conj(Z[h-k]))/2i
	// are the spectra of the even and odd samples, and
	// X[k] = Fe[k] + exp(-2*pi*i*k/n)*Fo[k]. twidFwd is exactly that
	// twiddle table.
	re0, im0 := real(z[0]), imag(z[0])
	out[0] = complex(re0+im0, 0)
	out[h] = complex(re0-im0, 0)
	for k := 1; k < h; k++ {
		zk, znk := z[k], cmplx.Conj(z[h-k])
		fe := (zk + znk) * 0.5
		fo := (zk - znk) * complex(0, -0.5)
		out[k] = fe + p.twidFwd[k]*fo
	}
	return out
}

// InverseReal reconstructs the real signal (the plan's length) from the
// half spectrum produced by ForwardReal, including the 1/N
// normalization. The result is written into out when cap(out) is at
// least the plan's length, otherwise a fresh slice is allocated. spec is
// left untouched.
func (p *Plan) InverseReal(spec []complex128, out []float64) []float64 {
	if len(spec) != p.SpectrumLen() {
		panic("dsp: plan/spectrum size mismatch")
	}
	if cap(out) >= p.n {
		out = out[:p.n]
	} else {
		out = make([]float64, p.n)
	}
	n := p.n
	if n <= 1 {
		if n == 1 {
			out[0] = real(spec[0])
		}
		return out
	}
	if p.bs != nil || n&(n-1) != 0 {
		// Non-power-of-two: expand to the full conjugate-symmetric
		// spectrum and run the complex inverse on pooled scratch.
		buf := AcquireComplex(n)
		defer ReleaseComplex(buf)
		copy(buf, spec)
		for k := p.SpectrumLen(); k < n; k++ {
			buf[k] = cmplx.Conj(spec[n-k])
		}
		p.Transform(buf, true)
		for i := range out {
			out[i] = real(buf[i])
		}
		return out
	}
	span := fftTimer.Start()
	defer span.Stop()
	h := n / 2
	z := AcquireComplex(h)
	defer ReleaseComplex(z)
	// Re-tangle: invert the ForwardReal untangling, then one inverse
	// half-length FFT whose 1/(n/2) normalization is exactly the 1/N
	// the packed pair of real samples per bin needs.
	for k := 0; k < h; k++ {
		xk, xnk := spec[k], cmplx.Conj(spec[h-k])
		fe := (xk + xnk) * 0.5
		fo := (xk - xnk) * 0.5 * p.twidInv[k]
		z[k] = fe + fo*complex(0, 1)
	}
	p.rsub.radix2(z, true)
	scale := 1 / float64(h)
	for k := 0; k < h; k++ {
		out[2*k] = real(z[k]) * scale
		out[2*k+1] = imag(z[k]) * scale
	}
	return out
}
