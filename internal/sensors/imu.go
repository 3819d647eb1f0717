// Package sensors models the UAV's navigation sensors: a MEMS-class IMU
// (accelerometer + gyroscope), a GPS receiver, and a compass. Each model
// converts ground-truth kinematics into noisy, rate-limited measurements
// and exposes an interception hook through which the attack package injects
// spoofed values — mirroring the paper's firmware-level injection point.
package sensors

import (
	"math"
	"math/rand"

	"soundboost/internal/mathx"
)

// Gravity is standard gravity in m/s^2 (NED: positive down).
const Gravity = 9.80665

// IMUMeasurement is one IMU output sample.
type IMUMeasurement struct {
	// Time is the sample timestamp in seconds.
	Time float64
	// Accel is the measured specific force in the body frame (m/s^2).
	// A vehicle at rest measures (0, 0, -Gravity) in NED body coordinates.
	Accel mathx.Vec3
	// Gyro is the measured body angular velocity (rad/s).
	Gyro mathx.Vec3
}

// IMUInterceptor rewrites an IMU measurement in flight; attacks implement
// it. A nil interceptor passes measurements through unchanged.
type IMUInterceptor interface {
	InterceptIMU(m IMUMeasurement) IMUMeasurement
}

// IMUConfig describes the stochastic error model of an IMU.
type IMUConfig struct {
	// SampleRate is the output rate in Hz.
	SampleRate float64
	// AccelNoiseStd is the accelerometer white-noise standard deviation
	// (m/s^2 per sample).
	AccelNoiseStd float64
	// GyroNoiseStd is the gyroscope white-noise standard deviation
	// (rad/s per sample).
	GyroNoiseStd float64
	// AccelBiasWalk is the accelerometer bias random-walk rate
	// (m/s^2 per sqrt(s)).
	AccelBiasWalk float64
	// GyroBiasWalk is the gyroscope bias random-walk rate
	// (rad/s per sqrt(s)).
	GyroBiasWalk float64
	// InitialAccelBias seeds the constant part of the accel bias (m/s^2).
	InitialAccelBias float64
	// InitialGyroBias seeds the constant part of the gyro bias (rad/s).
	InitialGyroBias float64
	// VibRectCoeff is the vibration-rectification coefficient (m/s^2 per
	// unit of normalised vibration level): MEMS accelerometers on
	// multirotors exhibit a thrust-dependent bias from rectified rotor
	// vibration, so the accel bias wanders with actuation. This is a key
	// in-flight error source that pure-inertial dead reckoning cannot
	// calibrate away.
	VibRectCoeff float64
}

// DefaultIMUConfig returns a consumer MEMS IMU error model comparable to the
// class of sensor on the paper's Holybro X500 (ICM-42688 family).
func DefaultIMUConfig() IMUConfig {
	return IMUConfig{
		SampleRate:       200,
		AccelNoiseStd:    0.05,
		GyroNoiseStd:     0.002,
		AccelBiasWalk:    0.002,
		GyroBiasWalk:     0.0002,
		InitialAccelBias: 0.02,
		InitialGyroBias:  0.001,
		VibRectCoeff:     0.5,
	}
}

// IMU simulates an inertial measurement unit.
type IMU struct {
	cfg         IMUConfig
	rng         *rand.Rand
	accelBias   mathx.Vec3
	gyroBias    mathx.Vec3
	vibAxis     mathx.Vec3
	vibration   float64
	interceptor IMUInterceptor
	lastSample  float64
	hasSampled  bool
}

// NewIMU builds an IMU with the given config. rng must be non-nil; it owns
// all stochastic behaviour so experiments stay reproducible.
func NewIMU(cfg IMUConfig, rng *rand.Rand) *IMU {
	randUnit := func() mathx.Vec3 {
		return mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	// The vibration-rectification axis is a fixed property of the mount:
	// mostly along the thrust axis with a random lateral component.
	vibAxis := mathx.Vec3{
		X: rng.NormFloat64() * 0.3,
		Y: rng.NormFloat64() * 0.3,
		Z: 1,
	}.Normalized()
	return &IMU{
		cfg:       cfg,
		rng:       rng,
		accelBias: randUnit().Scale(cfg.InitialAccelBias),
		gyroBias:  randUnit().Scale(cfg.InitialGyroBias),
		vibAxis:   vibAxis,
		vibration: 1,
	}
}

// SetVibration updates the normalised vibration level (1 = hover) that
// drives the rectification bias; the flight loop calls it each step from
// the rotor state.
func (s *IMU) SetVibration(level float64) { s.vibration = level }

// SetInterceptor installs (or clears, with nil) the attack hook.
func (s *IMU) SetInterceptor(i IMUInterceptor) { s.interceptor = i }

// Due reports whether a new sample should be produced at time t.
func (s *IMU) Due(t float64) bool {
	if !s.hasSampled {
		return true
	}
	return t-s.lastSample >= 1/s.cfg.SampleRate-1e-9
}

// Sample produces a measurement at time t given the true specific force
// (body frame, m/s^2) and true body angular velocity (rad/s). The caller is
// responsible for calling it at the configured rate (see Due).
func (s *IMU) Sample(t float64, trueSpecificForce, trueAngVel mathx.Vec3) IMUMeasurement {
	dt := 1 / s.cfg.SampleRate
	if s.hasSampled {
		dt = t - s.lastSample
		if dt < 0 {
			dt = 0
		}
	}
	s.lastSample = t
	s.hasSampled = true

	walk := func(rate float64) mathx.Vec3 {
		if rate == 0 || dt == 0 {
			return mathx.Vec3{}
		}
		scale := rate * sqrt(dt)
		return mathx.Vec3{
			X: s.rng.NormFloat64() * scale,
			Y: s.rng.NormFloat64() * scale,
			Z: s.rng.NormFloat64() * scale,
		}
	}
	s.accelBias = s.accelBias.Add(walk(s.cfg.AccelBiasWalk))
	s.gyroBias = s.gyroBias.Add(walk(s.cfg.GyroBiasWalk))

	noise := func(std float64) mathx.Vec3 {
		return mathx.Vec3{
			X: s.rng.NormFloat64() * std,
			Y: s.rng.NormFloat64() * std,
			Z: s.rng.NormFloat64() * std,
		}
	}
	accel := trueSpecificForce.Add(s.accelBias).Add(noise(s.cfg.AccelNoiseStd))
	if s.cfg.VibRectCoeff != 0 {
		// Rectified vibration bias: scales with the deviation of the
		// vibration level from the hover reference, so it wanders with
		// actuation rather than staying calibratable.
		accel = accel.Add(s.vibAxis.Scale(s.cfg.VibRectCoeff * (s.vibration - 1)))
	}
	m := IMUMeasurement{
		Time:  t,
		Accel: accel,
		Gyro:  trueAngVel.Add(s.gyroBias).Add(noise(s.cfg.GyroNoiseStd)),
	}
	if s.interceptor != nil {
		m = s.interceptor.InterceptIMU(m)
	}
	return m
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
