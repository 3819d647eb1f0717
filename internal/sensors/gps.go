package sensors

import (
	"math/rand"

	"soundboost/internal/mathx"
)

// GPSFix is one GPS receiver output.
type GPSFix struct {
	// Time is the fix timestamp in seconds.
	Time float64
	// Pos is the measured position in local NED coordinates (m).
	Pos mathx.Vec3
	// Vel is the measured velocity in NED (m/s).
	Vel mathx.Vec3
	// Valid mirrors receiver fix validity; spoofers keep it true.
	Valid bool
}

// GPSInterceptor rewrites a GPS fix in flight; GPS spoofing attacks
// implement it.
type GPSInterceptor interface {
	InterceptGPS(f GPSFix) GPSFix
}

// GPSConfig describes the GPS receiver error model.
type GPSConfig struct {
	// SampleRate is the fix rate in Hz (consumer receivers: 5-10 Hz).
	SampleRate float64
	// HorizontalStd and VerticalStd are position noise sigmas (m).
	HorizontalStd float64
	VerticalStd   float64
	// VelStd is the velocity noise sigma (m/s).
	VelStd float64
	// WalkStd adds a slowly-varying correlated position error (m), modelling
	// multipath / atmospheric wander.
	WalkStd float64
	// WalkTau is the correlation time of the wander in seconds.
	WalkTau float64
}

// DefaultGPSConfig models a u-blox M8/M9-class receiver.
func DefaultGPSConfig() GPSConfig {
	return GPSConfig{
		SampleRate:    10,
		HorizontalStd: 0.4,
		VerticalStd:   0.8,
		VelStd:        0.1,
		WalkStd:       0.6,
		WalkTau:       30,
	}
}

// GPS simulates a GPS receiver in a local NED frame.
type GPS struct {
	cfg         GPSConfig
	rng         *rand.Rand
	wander      mathx.Vec3
	interceptor GPSInterceptor
	lastFix     float64
	hasFixed    bool
}

// NewGPS builds a GPS receiver model; rng must be non-nil.
func NewGPS(cfg GPSConfig, rng *rand.Rand) *GPS {
	return &GPS{cfg: cfg, rng: rng}
}

// SetInterceptor installs (or clears, with nil) the attack hook.
func (g *GPS) SetInterceptor(i GPSInterceptor) { g.interceptor = i }

// Due reports whether a new fix should be produced at time t.
func (g *GPS) Due(t float64) bool {
	if !g.hasFixed {
		return true
	}
	return t-g.lastFix >= 1/g.cfg.SampleRate-1e-9
}

// Fix produces a measurement at time t from true position and velocity.
func (g *GPS) Fix(t float64, truePos, trueVel mathx.Vec3) GPSFix {
	dt := 1 / g.cfg.SampleRate
	if g.hasFixed {
		dt = t - g.lastFix
		if dt < 0 {
			dt = 0
		}
	}
	g.lastFix = t
	g.hasFixed = true

	// Ornstein-Uhlenbeck wander: decays toward zero, driven by white noise.
	if g.cfg.WalkTau > 0 {
		decay := 1 - dt/g.cfg.WalkTau
		if decay < 0 {
			decay = 0
		}
		drive := g.cfg.WalkStd * sqrt(2*dt/g.cfg.WalkTau)
		g.wander = g.wander.Scale(decay).Add(mathx.Vec3{
			X: g.rng.NormFloat64() * drive,
			Y: g.rng.NormFloat64() * drive,
			Z: g.rng.NormFloat64() * drive,
		})
	}
	f := GPSFix{
		Time: t,
		Pos: truePos.Add(g.wander).Add(mathx.Vec3{
			X: g.rng.NormFloat64() * g.cfg.HorizontalStd,
			Y: g.rng.NormFloat64() * g.cfg.HorizontalStd,
			Z: g.rng.NormFloat64() * g.cfg.VerticalStd,
		}),
		Vel: trueVel.Add(mathx.Vec3{
			X: g.rng.NormFloat64() * g.cfg.VelStd,
			Y: g.rng.NormFloat64() * g.cfg.VelStd,
			Z: g.rng.NormFloat64() * g.cfg.VelStd,
		}),
		Valid: true,
	}
	if g.interceptor != nil {
		f = g.interceptor.InterceptGPS(f)
	}
	return f
}

// Compass models a magnetometer-derived heading source. The paper's threat
// model does not attack the compass, so the model is noise-only.
type Compass struct {
	// NoiseStd is the heading noise sigma in radians.
	NoiseStd float64
	rng      *rand.Rand
}

// NewCompass builds a compass model; rng must be non-nil.
func NewCompass(noiseStd float64, rng *rand.Rand) *Compass {
	return &Compass{NoiseStd: noiseStd, rng: rng}
}

// Heading returns a noisy yaw measurement (radians) from the true yaw.
func (c *Compass) Heading(trueYaw float64) float64 {
	return trueYaw + c.rng.NormFloat64()*c.NoiseStd
}
