package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// delayed returns x shifted right by d samples (zero-filled).
func delayed(x []float64, d int) []float64 {
	out := make([]float64, len(x))
	for i := d; i < len(x); i++ {
		out[i] = x[i-d]
	}
	return out
}

func TestGCCPHATSharperThanPlain(t *testing.T) {
	// For a narrow-band (tonal) source, plain correlation has ambiguous
	// periodic peaks; PHAT whitening still peaks at the true delay when
	// some broadband content exists.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 2048)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*200*float64(i)/8000) + 0.5*rng.NormFloat64()
	}
	y := delayed(x, 12)
	corr := GCCPHAT(x, y)
	lag, _ := PeakLag(corr, 60)
	if lag != 12 {
		t.Errorf("GCC-PHAT peak at %d, want 12", lag)
	}
}

func TestEstimateTDoA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rate = 16000.0
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := delayed(x, 23)
	tdoa, err := EstimateTDoA(x, y, rate, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := 23.0 / rate
	// Sub-sample interpolation may deviate by a small fraction of a
	// sample even for exact integer delays.
	if math.Abs(tdoa-want) > 0.1/rate {
		t.Errorf("TDoA = %v, want %v", tdoa, want)
	}
}

func TestEstimateTDoAErrors(t *testing.T) {
	if _, err := EstimateTDoA(nil, []float64{1}, 8000, 0.01); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := EstimateTDoA([]float64{1}, []float64{1}, 0, 0.01); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestPeakLagEmpty(t *testing.T) {
	if lag, v := PeakLag(nil, 10); lag != 0 || v != 0 {
		t.Errorf("PeakLag(nil) = %d, %v", lag, v)
	}
}
