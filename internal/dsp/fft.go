// Package dsp implements the signal-processing substrate SoundBoost needs:
// a radix-2 FFT with Bluestein fallback for arbitrary lengths, analysis
// windows, short-time Fourier transforms, frequency-band energy extraction
// (the paper's blade-passing / mechanical / aerodynamic groups), biquad
// filters, and GCC-PHAT time-delay estimation. Transforms run over cached
// per-size plans (see Plan).
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Magnitudes returns |X[k]| for each bin.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, c := range x {
		out[i] = cmplx.Abs(c)
	}
	return out
}

// BinFrequency returns the center frequency in Hz of FFT bin k for a
// transform of length n over samples taken at sampleRate Hz.
func BinFrequency(k, n int, sampleRate float64) float64 {
	return float64(k) * sampleRate / float64(n)
}

// FrequencyBin returns the FFT bin index whose center frequency is closest
// to freq, clamped to the valid half-spectrum range [0, n/2].
func FrequencyBin(freq float64, n int, sampleRate float64) int {
	k := int(math.Round(freq * float64(n) / sampleRate))
	if k < 0 {
		k = 0
	}
	if k > n/2 {
		k = n / 2
	}
	return k
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
