package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadSTFTConfig is returned when an STFT configuration is unusable.
var ErrBadSTFTConfig = errors.New("dsp: invalid STFT configuration")

// STFTConfig describes a short-time Fourier transform.
type STFTConfig struct {
	// WindowSize is the number of samples per analysis frame.
	WindowSize int
	// HopSize is the number of samples the frame advances between columns.
	HopSize int
	// Window generates the analysis window; nil means Hann.
	Window WindowFunc
	// Pad, when true, zero-pads each frame to the next power of two before
	// the transform (cheaper radix-2 path, finer bin spacing).
	Pad bool
}

func (c STFTConfig) validate() error {
	if c.WindowSize <= 0 {
		return fmt.Errorf("%w: window size %d", ErrBadSTFTConfig, c.WindowSize)
	}
	if c.HopSize <= 0 {
		return fmt.Errorf("%w: hop size %d", ErrBadSTFTConfig, c.HopSize)
	}
	return nil
}

// Spectrogram holds the magnitude STFT of a signal.
type Spectrogram struct {
	// Mag[frame][bin] is the magnitude of the given FFT bin.
	Mag [][]float64
	// NFFT is the transform length used per frame.
	NFFT int
	// SampleRate is the sample rate of the analysed signal in Hz.
	SampleRate float64
}

// STFT computes the magnitude spectrogram of x sampled at sampleRate.
func STFT(x []float64, sampleRate float64, cfg STFTConfig) (*Spectrogram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var win []float64
	if cfg.Window != nil {
		win = cfg.Window(cfg.WindowSize)
	} else {
		win = CachedHann(cfg.WindowSize)
	}
	nfft := cfg.WindowSize
	if cfg.Pad {
		nfft = NextPow2(cfg.WindowSize)
	}
	var frames [][]float64
	plan := PlanFFT(nfft)
	buf := AcquireComplex(nfft)
	defer ReleaseComplex(buf)
	for start := 0; start+cfg.WindowSize <= len(x); start += cfg.HopSize {
		for i := range buf {
			buf[i] = 0
		}
		for i := 0; i < cfg.WindowSize; i++ {
			buf[i] = complex(x[start+i]*win[i], 0)
		}
		plan.Forward(buf)
		frames = append(frames, Magnitudes(buf[:nfft/2+1]))
	}
	return &Spectrogram{Mag: frames, NFFT: nfft, SampleRate: sampleRate}, nil
}

// Band is a closed frequency interval in Hz.
type Band struct {
	Name string
	Low  float64
	High float64
}

// BandEnergy integrates |X|^2 over the band for a single magnitude frame and
// returns the square root (an RMS-like band amplitude). Frames outside the
// band contribute nothing.
func BandEnergy(frame []float64, nfft int, sampleRate float64, b Band) float64 {
	lo := FrequencyBin(b.Low, nfft, sampleRate)
	hi := FrequencyBin(b.High, nfft, sampleRate)
	if hi >= len(frame) {
		hi = len(frame) - 1
	}
	sum := 0.0
	for k := lo; k <= hi; k++ {
		sum += frame[k] * frame[k]
	}
	return math.Sqrt(sum)
}

// MeanSpectrum averages the magnitude across all frames, giving the overall
// frequency distribution of the signal (paper Fig. 2a).
func (s *Spectrogram) MeanSpectrum() []float64 {
	if len(s.Mag) == 0 {
		return nil
	}
	out := make([]float64, len(s.Mag[0]))
	for _, frame := range s.Mag {
		for k, v := range frame {
			out[k] += v
		}
	}
	inv := 1 / float64(len(s.Mag))
	for k := range out {
		out[k] *= inv
	}
	return out
}
