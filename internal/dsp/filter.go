package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadFilterConfig is the sentinel wrapped by every filter-design
// error, mirroring ErrBadSTFTConfig so callers can branch with
// errors.Is instead of string matching.
var ErrBadFilterConfig = errors.New("dsp: invalid filter configuration")

// Biquad is a second-order IIR filter section in direct form II transposed.
// SoundBoost uses a low-pass biquad to discard everything above the
// aerodynamic frequency group (6 kHz in the paper), which also removes any
// ultrasonic IMU-injection energy by construction.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     float64
}

// NewLowPass designs a Butterworth-style low-pass biquad with the given
// cutoff (Hz) at sampleRate (Hz). Cutoff must lie in (0, sampleRate/2).
func NewLowPass(cutoff, sampleRate float64) (*Biquad, error) {
	if err := checkFilterRate(sampleRate); err != nil {
		return nil, fmt.Errorf("%w: low-pass: %v", ErrBadFilterConfig, err)
	}
	if !isFinite(cutoff) || cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("%w: low-pass cutoff %g Hz outside (0, %g)", ErrBadFilterConfig, cutoff, sampleRate/2)
	}
	w0 := 2 * math.Pi * cutoff / sampleRate
	q := math.Sqrt2 / 2
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cosw) / 2 / a0,
		b1: (1 - cosw) / a0,
		b2: (1 - cosw) / 2 / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewBandPass designs a constant-peak band-pass biquad centered at center Hz
// with the given quality factor q.
func NewBandPass(center, q, sampleRate float64) (*Biquad, error) {
	if err := checkFilterRate(sampleRate); err != nil {
		return nil, fmt.Errorf("%w: band-pass: %v", ErrBadFilterConfig, err)
	}
	if !isFinite(center) || center <= 0 || center >= sampleRate/2 {
		return nil, fmt.Errorf("%w: band-pass center %g Hz outside (0, %g)", ErrBadFilterConfig, center, sampleRate/2)
	}
	if !isFinite(q) || q <= 0 {
		return nil, fmt.Errorf("%w: band-pass q %g must be a positive finite number", ErrBadFilterConfig, q)
	}
	w0 := 2 * math.Pi * center / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cosw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: alpha / a0,
		b1: 0,
		b2: -alpha / a0,
		a1: -2 * cosw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// checkFilterRate rejects non-finite and non-positive sample rates.
// NaN in particular would sail through the range comparisons (every NaN
// comparison is false) and poison the biquad coefficients.
func checkFilterRate(sampleRate float64) error {
	if !isFinite(sampleRate) || sampleRate <= 0 {
		return fmt.Errorf("sample rate %g must be a positive finite number", sampleRate)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Process filters one sample, advancing internal state.
func (f *Biquad) Process(x float64) float64 {
	y := f.b0*x + f.z1
	f.z1 = f.b1*x - f.a1*y + f.z2
	f.z2 = f.b2*x - f.a2*y
	return y
}

// ProcessAll filters a whole signal into a new slice.
func (f *Biquad) ProcessAll(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.z1, f.z2 = 0, 0 }

// FilterChain applies filters in sequence.
type FilterChain []*Biquad

// Process runs one sample through every stage.
func (c FilterChain) Process(x float64) float64 {
	for _, f := range c {
		x = f.Process(x)
	}
	return x
}
