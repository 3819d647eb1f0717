package dsp

import "math"

// WindowFunc generates an analysis window of length n. Implementations
// return a fresh slice each call.
type WindowFunc func(n int) []float64

// Hann returns the Hann (raised-cosine) window of length n. For n <= 1 a
// rectangular window of the requested length is returned.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}
