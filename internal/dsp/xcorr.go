package dsp

import (
	"fmt"
	"math/cmplx"
)

// GCCPHAT computes the Generalized Cross-Correlation with Phase Transform
// between two signals — the standard TDoA estimator for microphone arrays
// (the paper's §II-D locates each propeller by TDoA). The PHAT weighting
// whitens the spectrum so the correlation peak sharpens to the true delay
// even for broadband rotor noise.
func GCCPHAT(a, b []float64) []float64 {
	n := NextPow2(len(a) + len(b) - 1)
	plan := PlanFFT(n)
	fa := AcquireFloats(n)
	defer ReleaseFloats(fa)
	fb := AcquireFloats(n)
	defer ReleaseFloats(fb)
	copy(fa, a)
	copy(fb, b)
	A := AcquireComplex(plan.SpectrumLen())
	defer ReleaseComplex(A)
	B := AcquireComplex(plan.SpectrumLen())
	defer ReleaseComplex(B)
	A = plan.ForwardReal(fa, A)
	B = plan.ForwardReal(fb, B)
	for i := range A {
		c := cmplx.Conj(A[i]) * B[i]
		mag := cmplx.Abs(c)
		if mag > 1e-12 {
			c /= complex(mag, 0)
		}
		A[i] = c
	}
	return plan.InverseReal(A, make([]float64, n))
}

// PeakLag finds the lag (in samples, possibly negative) of the maximum of
// a circular correlation sequence, searching only |lag| <= maxLag.
// Positive lag means b is delayed relative to a.
func PeakLag(corr []float64, maxLag int) (lag int, value float64) {
	n := len(corr)
	if n == 0 {
		return 0, 0
	}
	if maxLag <= 0 || maxLag >= n/2 {
		maxLag = n/2 - 1
	}
	best := corr[0]
	bestLag := 0
	for l := 1; l <= maxLag; l++ {
		if corr[l] > best {
			best, bestLag = corr[l], l
		}
		if corr[n-l] > best {
			best, bestLag = corr[n-l], -l
		}
	}
	return bestLag, best
}

// PeakLagInterp refines PeakLag to sub-sample resolution by fitting a
// parabola through the peak and its neighbours — necessary for small
// microphone arrays whose full delay range spans only a few samples.
func PeakLagInterp(corr []float64, maxLag int) float64 {
	n := len(corr)
	if n < 3 {
		return 0
	}
	lag, _ := PeakLag(corr, maxLag)
	at := func(l int) float64 { return corr[((l%n)+n)%n] }
	ym, y0, yp := at(lag-1), at(lag), at(lag+1)
	den := ym - 2*y0 + yp
	if den == 0 {
		return float64(lag)
	}
	delta := 0.5 * (ym - yp) / den
	if delta > 0.5 {
		delta = 0.5
	}
	if delta < -0.5 {
		delta = -0.5
	}
	return float64(lag) + delta
}

// EstimateTDoA returns the time-difference-of-arrival of b relative to a
// in seconds, via GCC-PHAT with sub-sample peak interpolation, limited to
// |tdoa| <= maxSeconds.
func EstimateTDoA(a, b []float64, sampleRate, maxSeconds float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("dsp: empty TDoA inputs")
	}
	if sampleRate <= 0 {
		return 0, fmt.Errorf("dsp: sample rate %g must be positive", sampleRate)
	}
	corr := GCCPHAT(a, b)
	maxLag := int(maxSeconds * sampleRate)
	return PeakLagInterp(corr, maxLag) / sampleRate, nil
}
