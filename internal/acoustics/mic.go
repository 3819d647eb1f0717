package acoustics

import (
	"fmt"
	"math"
	"math/rand"

	"soundboost/internal/mathx"
)

// NumMics is the channel count of the ReSpeaker-class array.
const NumMics = 4

// ArrayConfig describes the microphone array geometry in the body frame.
type ArrayConfig struct {
	// MicPositions are the microphone locations (m, body frame).
	MicPositions [NumMics]mathx.Vec3
	// RotorPositions are the rotor hub locations (m, body frame).
	RotorPositions [NumRotors]mathx.Vec3
	// RefDistance normalises the 1/r gain so a source at RefDistance has
	// unit gain.
	RefDistance float64
}

// DefaultArrayConfig places a 4-mic square array off-centre on the frame
// (paper §II-D: off-centre placement makes per-rotor distances distinct, so
// each rotor maps to a distinct channel-gain signature).
func DefaultArrayConfig(armLength float64) ArrayConfig {
	d := armLength / math.Sqrt2
	// Array centred 8 cm forward, 5 cm right of the hub, 3 cm mic spacing.
	cx, cy := 0.08, 0.05
	const s = 0.03
	return ArrayConfig{
		MicPositions: [NumMics]mathx.Vec3{
			{X: cx + s, Y: cy + s, Z: -0.02},
			{X: cx + s, Y: cy - s, Z: -0.02},
			{X: cx - s, Y: cy + s, Z: -0.02},
			{X: cx - s, Y: cy - s, Z: -0.02},
		},
		RotorPositions: [NumRotors]mathx.Vec3{
			{X: d, Y: d},
			{X: -d, Y: -d},
			{X: d, Y: -d},
			{X: -d, Y: d},
		},
		RefDistance: 0.25,
	}
}

// Validate reports geometry errors.
func (c ArrayConfig) Validate() error {
	if c.RefDistance <= 0 {
		return fmt.Errorf("acoustics: reference distance %g must be positive", c.RefDistance)
	}
	for m := range c.MicPositions {
		for r := range c.RotorPositions {
			if c.MicPositions[m].Dist(c.RotorPositions[r]) < 1e-3 {
				return fmt.Errorf("acoustics: mic %d coincides with rotor %d", m, r)
			}
		}
	}
	return nil
}

// Recording is multi-channel audio with its sample rate.
type Recording struct {
	// Channels[m][i] is sample i of microphone m.
	Channels [NumMics][]float64
	// SampleRate in Hz.
	SampleRate float64
}

// Samples returns the per-channel sample count (0 when empty).
func (r *Recording) Samples() int { return len(r.Channels[0]) }

// Duration returns the recording length in seconds.
func (r *Recording) Duration() float64 {
	if r.SampleRate == 0 {
		return 0
	}
	return float64(r.Samples()) / r.SampleRate
}

// Clone deep-copies the recording; interference experiments mutate copies.
func (r *Recording) Clone() *Recording {
	out := &Recording{SampleRate: r.SampleRate}
	for m := range r.Channels {
		out.Channels[m] = append([]float64(nil), r.Channels[m]...)
	}
	return out
}

// Interference injects additional sound into the microphone channels.
// Implementations model second-UAV noise, record-and-replay speakers, or
// the idealised phase-synchronised attacker of Tab. III.
type Interference interface {
	// Apply mutates the recording in place.
	Apply(rec *Recording)
}

// MicArray mixes rotor source signals down to microphone channels with
// per-path geometric attenuation and propagation delay, then adds ambient
// and wind noise.
type MicArray struct {
	cfg   ArrayConfig
	synth SynthConfig
	rng   *rand.Rand

	gain [NumMics][NumRotors]float64
	// delayInt + delayFrac represent the propagation delay in samples;
	// the fractional part is rendered by linear interpolation so the
	// array's TDoA structure survives at small apertures.
	delayInt  [NumMics][NumRotors]int
	delayFrac [NumMics][NumRotors]float64
}

// NewMicArray precomputes the mixing matrix from geometry.
func NewMicArray(cfg ArrayConfig, synth SynthConfig) (*MicArray, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := synth.Validate(); err != nil {
		return nil, err
	}
	a := &MicArray{cfg: cfg, synth: synth, rng: rand.New(rand.NewSource(synth.Seed + 7919))}
	for m := 0; m < NumMics; m++ {
		for r := 0; r < NumRotors; r++ {
			d := cfg.MicPositions[m].Dist(cfg.RotorPositions[r])
			a.gain[m][r] = cfg.RefDistance / d
			delay := d / SpeedOfSound * synth.SampleRate
			a.delayInt[m][r] = int(math.Floor(delay))
			a.delayFrac[m][r] = delay - math.Floor(delay)
		}
	}
	return a, nil
}

// Record mixes per-rotor source signals (from Synthesizer.SourceSignals)
// into a multi-channel recording. windSpeed supplies the low-frequency
// rumble level per sample block; pass nil for still air.
func (a *MicArray) Record(sources [][NumRotors]float64, windSpeed []float64) *Recording {
	n := len(sources)
	rec := &Recording{SampleRate: a.synth.SampleRate}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, n)
	}
	// Wind rumble: a slow random walk low-passed heavily, shared by all
	// mics (the gust field is large relative to the array).
	rumble := 0.0
	for i := 0; i < n; i++ {
		ws := 0.0
		if windSpeed != nil {
			idx := i * len(windSpeed) / n
			if idx >= len(windSpeed) {
				idx = len(windSpeed) - 1
			}
			ws = windSpeed[idx]
		}
		rumble = 0.999*rumble + 0.001*a.rng.NormFloat64()*a.synth.WindNoiseCoeff*ws*50
		for m := 0; m < NumMics; m++ {
			var s float64
			for r := 0; r < NumRotors; r++ {
				j := i - a.delayInt[m][r]
				if j >= 1 {
					frac := a.delayFrac[m][r]
					s += a.gain[m][r] * ((1-frac)*sources[j][r] + frac*sources[j-1][r])
				}
			}
			s += a.rng.NormFloat64() * a.synth.AmbientStd
			s += rumble
			rec.Channels[m][i] = s
		}
	}
	return rec
}

// RenderFlight is the one-call path from rotor frames to a recording,
// applying any interference stages in order.
func RenderFlight(frames []RotorFrame, synthCfg SynthConfig, arrayCfg ArrayConfig, interference ...Interference) (*Recording, error) {
	synth, err := NewSynthesizer(synthCfg)
	if err != nil {
		return nil, err
	}
	array, err := NewMicArray(arrayCfg, synthCfg)
	if err != nil {
		return nil, err
	}
	sources := synth.SourceSignals(frames)
	wind := make([]float64, len(frames))
	for i, f := range frames {
		wind[i] = f.WindSpeed
	}
	rec := array.Record(sources, wind)
	for _, itf := range interference {
		itf.Apply(rec)
	}
	return rec, nil
}
