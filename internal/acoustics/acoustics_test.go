package acoustics

import (
	"math"
	"testing"

	"soundboost/internal/dsp"
)

func hoverFrames(speed float64, seconds float64) []RotorFrame {
	frames := make([]RotorFrame, 0, int(seconds*100)+1)
	for t := 0.0; t <= seconds; t += 0.01 {
		frames = append(frames, RotorFrame{
			Time:  t,
			Speed: [NumRotors]float64{speed, speed, speed, speed},
		})
	}
	return frames
}

func TestSynthConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SynthConfig)
		wantOK bool
	}{
		{"default", func(c *SynthConfig) {}, true},
		{"zero rate", func(c *SynthConfig) { c.SampleRate = 0 }, false},
		{"aero above nyquist", func(c *SynthConfig) { c.AeroFreq = 9000 }, false},
		{"zero blades", func(c *SynthConfig) { c.Blades = 0 }, false},
		{"zero hover speed", func(c *SynthConfig) { c.HoverSpeed = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultSynthConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.wantOK {
				t.Errorf("Validate() = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

// The headline property behind Fig. 2a: the synthesised spectrum
// concentrates energy in the three paper frequency groups.
func TestSpectrumHasThreeGroups(t *testing.T) {
	cfg := DefaultSynthConfig()
	rec, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 2), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dsp.STFT(rec.Channels[0], cfg.SampleRate, dsp.STFTConfig{WindowSize: 4096, HopSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	mean := spec.MeanSpectrum()
	bandMean := func(lo, hi float64) float64 {
		a := dsp.FrequencyBin(lo, spec.NFFT, cfg.SampleRate)
		b := dsp.FrequencyBin(hi, spec.NFFT, cfg.SampleRate)
		s := 0.0
		for k := a; k <= b && k < len(mean); k++ {
			s += mean[k]
		}
		return s / float64(b-a+1)
	}
	blade := bandMean(150, 450)
	mech := bandMean(1900, 2900)
	aero := bandMean(4800, 6200)
	gapLow := bandMean(800, 1500)
	gapHigh := bandMean(6800, 7600)
	for name, pair := range map[string][2]float64{
		"blade vs 0.8-1.5k gap": {blade, gapLow},
		"mech vs 0.8-1.5k gap":  {mech, gapLow},
		"aero vs 6.8-7.6k gap":  {aero, gapHigh},
	} {
		if pair[0] < 3*pair[1] {
			t.Errorf("%s: group %g not dominant over gap %g", name, pair[0], pair[1])
		}
	}
}

// Fig. 2b-d property: aerodynamic band amplitude rises with rotor speed.
func TestAeroBandTracksRotorSpeed(t *testing.T) {
	cfg := DefaultSynthConfig()
	arr := DefaultArrayConfig(0.25)
	bandAmp := func(speed float64) float64 {
		rec, err := RenderFlight(hoverFrames(speed, 1), cfg, arr)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := dsp.STFT(rec.Channels[0], cfg.SampleRate, dsp.STFTConfig{WindowSize: 2048, HopSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return bandSum(spec, dsp.Band{Low: 4800, High: 6200}) / float64(len(spec.Mag))
	}
	slow := bandAmp(cfg.HoverSpeed * 0.8)
	hover := bandAmp(cfg.HoverSpeed)
	fast := bandAmp(cfg.HoverSpeed * 1.2)
	if !(slow < hover && hover < fast) {
		t.Errorf("aero band amplitude not monotone in rotor speed: %g, %g, %g", slow, hover, fast)
	}
	// Cubic scaling: 1.2x speed ~ 1.7x amplitude at least.
	if fast < hover*1.4 {
		t.Errorf("aero band amplitude %g at 1.2x speed vs %g at hover: scaling too weak", fast, hover)
	}
}

func TestBladePassingFrequencyMatchesSpeed(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.AmbientStd = 0
	cfg.AeroAmp = 0 // isolate the tonal component
	cfg.MechAmp = 0
	rec, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 2), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dsp.STFT(rec.Channels[0], cfg.SampleRate, dsp.STFTConfig{WindowSize: 8192, HopSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	frame := spec.Mag[1]
	bin := dsp.FrequencyBin(100, spec.NFFT, cfg.SampleRate)
	for k := bin; k <= dsp.FrequencyBin(1000, spec.NFFT, cfg.SampleRate); k++ {
		if frame[k] > frame[bin] {
			bin = k
		}
	}
	got := dsp.BinFrequency(bin, spec.NFFT, cfg.SampleRate)
	want := float64(cfg.Blades) * cfg.HoverSpeed / (2 * math.Pi)
	if math.Abs(got-want) > 15 {
		t.Errorf("blade-passing peak at %g Hz, want ~%g", got, want)
	}
}

func TestMicArrayOffCenterGains(t *testing.T) {
	cfg := DefaultSynthConfig()
	arr, err := NewMicArray(DefaultArrayConfig(0.25), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := arr.gain
	// The array sits front-right, so every mic must hear the front-right
	// rotor (0) louder than the rear-left rotor (1).
	for m := 0; m < NumMics; m++ {
		if g[m][0] <= g[m][1] {
			t.Errorf("mic %d: front-right gain %g <= rear-left gain %g", m, g[m][0], g[m][1])
		}
	}
	// Distinct rotors must give distinct gain signatures on at least one mic.
	for r1 := 0; r1 < NumRotors; r1++ {
		for r2 := r1 + 1; r2 < NumRotors; r2++ {
			distinct := false
			for m := 0; m < NumMics; m++ {
				if math.Abs(g[m][r1]-g[m][r2]) > 1e-6 {
					distinct = true
				}
			}
			if !distinct {
				t.Errorf("rotors %d and %d have identical gain signatures", r1, r2)
			}
		}
	}
}

func TestArrayConfigValidate(t *testing.T) {
	cfg := DefaultArrayConfig(0.25)
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := cfg
	bad.RefDistance = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ref distance accepted")
	}
	bad = cfg
	bad.MicPositions[0] = bad.RotorPositions[0]
	if err := bad.Validate(); err == nil {
		t.Error("mic on rotor accepted")
	}
}

func TestRecordingCloneIndependent(t *testing.T) {
	cfg := DefaultSynthConfig()
	rec, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 0.2), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	clone := rec.Clone()
	clone.Channels[0][0] += 100
	if rec.Channels[0][0] == clone.Channels[0][0] {
		t.Error("Clone shares storage")
	}
	if clone.Duration() != rec.Duration() {
		t.Error("Clone changed duration")
	}
}

func TestExternalSourceInterferenceWeakAtDistance(t *testing.T) {
	cfg := DefaultSynthConfig()
	frames := hoverFrames(cfg.HoverSpeed, 1)
	clean, err := RenderFlight(frames, cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := SecondUAVSignal(cfg, cfg.HoverSpeed, clean.Samples(), 99)
	if err != nil {
		t.Fatal(err)
	}
	noisy := clean.Clone()
	ExternalSourceInterference{Signal: sig, Distance: 2.0, RefDistance: 0.25, IntensityLossFactor: 0.46}.Apply(noisy)
	// Interference from 2 m away adds little energy relative to own rotors
	// ~0.2 m away: RMS must change by well under 10%.
	rms := func(x []float64) float64 {
		sum := 0.0
		for _, v := range x {
			sum += v * v
		}
		return math.Sqrt(sum / float64(len(x)))
	}
	r0 := rms(clean.Channels[0])
	r1 := rms(noisy.Channels[0])
	if math.Abs(r1-r0)/r0 > 0.10 {
		t.Errorf("distant interference changed RMS by %.1f%%", 100*math.Abs(r1-r0)/r0)
	}
}

func TestExternalSourceInterferenceNoop(t *testing.T) {
	cfg := DefaultSynthConfig()
	rec, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 0.2), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	before := rec.Channels[0][100]
	ExternalSourceInterference{Signal: nil, Distance: 1}.Apply(rec)
	ExternalSourceInterference{Signal: []float64{1, 2}, Distance: 0}.Apply(rec)
	if rec.Channels[0][100] != before {
		t.Error("no-op interference mutated the recording")
	}
}

func TestPhaseSyncedBandAttackScalesAeroBand(t *testing.T) {
	cfg := DefaultSynthConfig()
	frames := hoverFrames(cfg.HoverSpeed, 1)
	clean, err := RenderFlight(frames, cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	bandEnergy := func(rec *Recording, ch int) float64 {
		spec, err := dsp.STFT(rec.Channels[ch], cfg.SampleRate, dsp.STFTConfig{WindowSize: 2048, HopSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return bandSum(spec, dsp.Band{Low: 5000, High: 6000})
	}
	tests := []struct {
		name      string
		amplitude float64
		check     func(clean, attacked float64) bool
	}{
		{"cancel", 0.0, func(c, a float64) bool { return a < 0.4*c }},
		{"half", 0.5, func(c, a float64) bool { return a > 0.3*c && a < 0.8*c }},
		{"amplify", 2.0, func(c, a float64) bool { return a > 1.5*c }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			attacked := clean.Clone()
			PhaseSyncedBandAttack{Channels: []int{0}, Amplitude: tt.amplitude}.Apply(attacked)
			c := bandEnergy(clean, 0)
			a := bandEnergy(attacked, 0)
			if !tt.check(c, a) {
				t.Errorf("amplitude %g: clean %g, attacked %g", tt.amplitude, c, a)
			}
			// Untouched channel stays identical.
			for i := range clean.Channels[1] {
				if clean.Channels[1][i] != attacked.Channels[1][i] {
					t.Fatal("untouched channel modified")
				}
			}
		})
	}
}

func TestPhaseSyncedBandAttackLeavesOtherBands(t *testing.T) {
	cfg := DefaultSynthConfig()
	clean, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 1), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	attacked := clean.Clone()
	PhaseSyncedBandAttack{Channels: []int{0}, Amplitude: 0}.Apply(attacked)
	specC, err := dsp.STFT(clean.Channels[0], cfg.SampleRate, dsp.STFTConfig{WindowSize: 2048, HopSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	specA, err := dsp.STFT(attacked.Channels[0], cfg.SampleRate, dsp.STFTConfig{WindowSize: 2048, HopSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	band := dsp.Band{Low: 150, High: 450}
	sumC, sumA := bandSum(specC, band), bandSum(specA, band)
	if math.Abs(sumA-sumC)/sumC > 0.15 {
		t.Errorf("blade band changed by %.1f%% under aero-band attack", 100*math.Abs(sumA-sumC)/sumC)
	}
}

func TestAmbientNoiseBurst(t *testing.T) {
	cfg := DefaultSynthConfig()
	rec, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 0.5), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	before := rec.Clone()
	AmbientNoiseBurst{StartSample: 100, Samples: 200, Std: 1, Seed: 3}.Apply(rec)
	changed := false
	for i := 100; i < 300; i++ {
		if rec.Channels[0][i] != before.Channels[0][i] {
			changed = true
		}
	}
	if !changed {
		t.Error("burst did not modify samples")
	}
	if rec.Channels[0][50] != before.Channels[0][50] {
		t.Error("burst modified samples outside its range")
	}
}

func TestSourceSignalsEmpty(t *testing.T) {
	synth, err := NewSynthesizer(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := synth.SourceSignals(nil); got != nil {
		t.Errorf("SourceSignals(nil) = %v, want nil", got)
	}
}

func TestRecordingDuration(t *testing.T) {
	cfg := DefaultSynthConfig()
	rec, err := RenderFlight(hoverFrames(cfg.HoverSpeed, 1), cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.Duration()-1) > 0.02 {
		t.Errorf("Duration = %v, want ~1", rec.Duration())
	}
	empty := &Recording{}
	if empty.Duration() != 0 {
		t.Errorf("empty Duration = %v, want 0", empty.Duration())
	}
}

func TestRenderFlightDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig()
	frames := hoverFrames(cfg.HoverSpeed, 0.3)
	a, err := RenderFlight(frames, cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderFlight(frames, cfg, DefaultArrayConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Channels[0] {
		if a.Channels[0][i] != b.Channels[0][i] {
			t.Fatalf("sample %d differs between identical renders", i)
		}
	}
}

// bandSum adds the band amplitude of every spectrogram frame.
func bandSum(spec *dsp.Spectrogram, b dsp.Band) float64 {
	var sum float64
	for _, frame := range spec.Mag {
		sum += dsp.BandEnergy(frame, spec.NFFT, spec.SampleRate, b)
	}
	return sum
}
