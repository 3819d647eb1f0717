package kalman

import (
	"fmt"
	"math"

	"soundboost/internal/mathx"
)

// Mode selects which sensors feed the velocity estimator — the three
// configurations compared in Tab. II.
type Mode string

const (
	// ModeAudioOnly is Version 1 of the paper's KF: used when the IMU is
	// flagged compromised. Audio acceleration drives both the prediction
	// and (integrated to a velocity pseudo-measurement) the update.
	ModeAudioOnly Mode = "audio-only"
	// ModeAudioIMU is Version 2, the customized KF: IMU acceleration
	// drives the prediction, audio-derived velocity drives the update.
	ModeAudioIMU Mode = "audio+imu"
	// ModeIMUOnly is the failsafe baseline (ArduPilot EKF failsafe
	// analogue): IMU drives both steps; no audio.
	ModeIMUOnly Mode = "imu-only"
)

// VelocityConfig tunes the noise covariances of the velocity estimator.
type VelocityConfig struct {
	Mode Mode
	// ProcessNoise is the per-axis process noise density ((m/s^2)^2 s).
	ProcessNoise float64
	// AudioMeasNoise is the per-axis variance of audio-derived velocity.
	AudioMeasNoise float64
	// IMUMeasNoise is the per-axis variance of IMU-derived velocity.
	IMUMeasNoise float64
	// InitialVar seeds the covariance diagonal.
	InitialVar float64
	// AdaptiveR enables innovation-based scaling of the measurement noise:
	// when the velocity pseudo-measurement's innovations grow far beyond
	// the configured noise, its weight shrinks. This implements the
	// paper's "weights ... reflect their respective reliabilities and are
	// updated dynamically" and is what degrades gracefully under
	// amplification-style sound attacks (Tab. III).
	AdaptiveR bool
	// AdaptTau is the innovation-EWMA time constant in steps.
	AdaptTau float64
	// AdaptMax caps the noise inflation factor.
	AdaptMax float64
}

// DefaultVelocityConfig returns tuned covariances for the given mode.
func DefaultVelocityConfig(mode Mode) VelocityConfig {
	return VelocityConfig{
		Mode:           mode,
		ProcessNoise:   0.05,
		AudioMeasNoise: 0.4,
		IMUMeasNoise:   0.2,
		InitialVar:     1.0,
		AdaptiveR:      mode == ModeAudioIMU,
		AdaptTau:       20,
		AdaptMax:       50,
	}
}

// VelocityEstimator fuses acceleration streams into a NED velocity
// estimate, per the paper's §III-C2 formulation: the state is the
// 3-velocity, acceleration enters as the control input (first kinematic
// formula v1 = v0 + a·t), and velocity pseudo-measurements computed from
// the audio (or IMU) acceleration refine the estimate.
type VelocityEstimator struct {
	cfg    VelocityConfig
	filter *Filter
	// audioVel and imuVel dead-reckon the velocity pseudo-measurements.
	audioVel mathx.Vec3
	imuVel   mathx.Vec3
	steps    int
	// innovEWMA tracks the squared innovation magnitude for adaptive R.
	innovEWMA float64
}

// NewVelocityEstimator builds an estimator starting from v0.
func NewVelocityEstimator(cfg VelocityConfig, v0 mathx.Vec3) (*VelocityEstimator, error) {
	switch cfg.Mode {
	case ModeAudioOnly, ModeAudioIMU, ModeIMUOnly:
	default:
		return nil, fmt.Errorf("kalman: unknown velocity mode %q", cfg.Mode)
	}
	f, err := NewFilter(v0.Slice(), mathx.Diag(cfg.InitialVar, cfg.InitialVar, cfg.InitialVar))
	if err != nil {
		return nil, err
	}
	return &VelocityEstimator{cfg: cfg, filter: f, audioVel: v0, imuVel: v0}, nil
}

// Step advances the estimator by dt given the NED-transformed audio
// acceleration prediction and the NED-transformed IMU acceleration
// (gravity-compensated). Unused inputs for the mode are ignored.
//
// dt must be a positive finite interval: a lossy or reordered telemetry
// bus delivers jittered, zero, negative, and occasionally non-finite
// timestamp deltas, and integrating any of those would corrupt the state
// irrecoverably. Such steps are rejected with an error and leave the
// estimator untouched, so the caller can skip the sample and continue.
// Non-finite acceleration inputs are rejected for the same reason.
func (e *VelocityEstimator) Step(audioAccelNED, imuAccelNED mathx.Vec3, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("kalman: non-positive dt %g", dt)
	}
	if math.IsNaN(dt) || math.IsInf(dt, 0) {
		return fmt.Errorf("kalman: non-finite dt %g", dt)
	}
	if !audioAccelNED.IsFinite() || !imuAccelNED.IsFinite() {
		return fmt.Errorf("kalman: non-finite acceleration input (audio %v, imu %v)", audioAccelNED, imuAccelNED)
	}
	e.steps++
	e.audioVel = e.audioVel.Add(audioAccelNED.Scale(dt))
	e.imuVel = e.imuVel.Add(imuAccelNED.Scale(dt))

	F := mathx.Identity(3)
	B := mathx.Diag(dt, dt, dt)
	q := e.cfg.ProcessNoise * dt
	Q := mathx.Diag(q, q, q)
	H := mathx.Identity(3)

	var predictAccel mathx.Vec3
	var meas mathx.Vec3
	var measVar float64
	switch e.cfg.Mode {
	case ModeAudioOnly:
		predictAccel = audioAccelNED
		meas = e.audioVel
		measVar = e.cfg.AudioMeasNoise
	case ModeAudioIMU:
		predictAccel = imuAccelNED
		meas = e.audioVel
		measVar = e.cfg.AudioMeasNoise
	case ModeIMUOnly:
		predictAccel = imuAccelNED
		meas = e.imuVel
		measVar = e.cfg.IMUMeasNoise
	}
	if err := e.filter.Predict(F, B, predictAccel.Slice(), Q); err != nil {
		return err
	}
	if e.cfg.AdaptiveR {
		// Scale the measurement noise by the ratio of recent innovation
		// power to the configured variance, so implausible measurement
		// streams (e.g. amplified-sound predictions) lose influence.
		innovSq := meas.Sub(e.Velocity()).NormSq() / 3
		tau := e.cfg.AdaptTau
		if tau < 1 {
			tau = 1
		}
		e.innovEWMA += (innovSq - e.innovEWMA) / tau
		scale := e.innovEWMA / measVar
		if scale < 1 {
			scale = 1
		}
		if e.cfg.AdaptMax > 1 && scale > e.cfg.AdaptMax {
			scale = e.cfg.AdaptMax
		}
		measVar *= scale
	}
	R := mathx.Diag(measVar, measVar, measVar)
	if err := e.filter.Update(H, meas.Slice(), R); err != nil {
		return err
	}
	// Leak the dead-reckoned pseudo-measurement streams toward the fused
	// estimate so their drift stays bounded over long flights.
	fused := e.Velocity()
	const leak = 0.02
	e.audioVel = e.audioVel.Lerp(fused, leak)
	e.imuVel = e.imuVel.Lerp(fused, leak)
	return nil
}

// Velocity returns the fused velocity estimate.
func (e *VelocityEstimator) Velocity() mathx.Vec3 {
	return mathx.Vec3{X: e.filter.X[0], Y: e.filter.X[1], Z: e.filter.X[2]}
}
