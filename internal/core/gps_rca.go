package soundboost

import (
	"fmt"
	"math"

	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/stats"
)

// GPSDetectorConfig tunes the GPS-spoofing RCA stage (§III-C2).
type GPSDetectorConfig struct {
	// Mode selects the KF variant (audio-only / audio+IMU / imu-only).
	Mode kalman.Mode
	// ThresholdMargin scales the calibrated benign threshold (>= 1).
	ThresholdMargin float64
	// PeakQuantile sets the threshold at this quantile of the benign
	// per-flight peak errors before the margin. The paper thresholds at
	// "the maximum running mean error of the benign cases after removing
	// outliers" — and its own benign false-positive rates (0.10-0.23)
	// show the removed 'outliers' are the top of the benign distribution,
	// i.e. the threshold sits inside it.
	PeakQuantile float64
	// ErrorAlpha is the exponential running-mean weight of the error
	// monitor.
	ErrorAlpha float64
	// AlignSeconds is the alignment phase at the start of each analysed
	// period: the constant bias of the audio (and IMU) acceleration stream
	// is estimated against GPS velocity deltas and removed before
	// integration. Per the threat model, attacks begin after take-off, so
	// the opening seconds are trustworthy; without alignment, an
	// acceleration bias of b m/s^2 drifts the velocity estimate by b*T
	// over a T-second period and swamps the spoofing signal.
	AlignSeconds float64
	// BiasTauSeconds continues tracking the slow acceleration bias after
	// alignment with this EWMA time constant, using GPS velocity
	// *derivatives* as the reference. Differentiation makes the tracker
	// transparent to the constant velocity offset a drift spoof injects
	// (it differentiates to zero) while absorbing slowly-varying benign
	// bias such as wind drag. 0 disables tracking.
	BiasTauSeconds float64
	// Velocity configures the underlying Kalman fusion.
	Velocity kalman.VelocityConfig
}

// DefaultGPSDetectorConfig returns the tuned configuration for a mode.
func DefaultGPSDetectorConfig(mode kalman.Mode) GPSDetectorConfig {
	return GPSDetectorConfig{
		Mode:            mode,
		ThresholdMargin: 1.1,
		PeakQuantile:    0.8,
		ErrorAlpha:      0.05,
		AlignSeconds:    5,
		BiasTauSeconds:  8,
		Velocity:        kalman.DefaultVelocityConfig(mode),
	}
}

// GPSTrace is the per-window diagnostic series of one flight's GPS RCA —
// the raw material for Fig. 7.
type GPSTrace struct {
	// Time is the window end time (s).
	Time []float64
	// FusedVel is the KF velocity estimate (NED).
	FusedVel []mathx.Vec3
	// GPSVel is the reported GPS velocity (NED).
	GPSVel []mathx.Vec3
	// FusedPos integrates FusedVel (SoundBoost's position estimate).
	FusedPos []mathx.Vec3
	// RunningError is the monitored running-mean velocity error.
	RunningError []float64
}

// GPSVerdict is the outcome of the GPS RCA stage on one flight period.
type GPSVerdict struct {
	// Attacked reports whether GPS spoofing was flagged.
	Attacked bool
	// DetectionTime is the flight time (s) when the running error first
	// crossed the threshold (valid when Attacked).
	DetectionTime float64
	// PeakError is the maximum running-mean error observed.
	PeakError float64
	// Threshold is the detector threshold used.
	Threshold float64
}

// GPSDetector flags GPS spoofing by fusing audio (and optionally IMU)
// acceleration into a velocity estimate and monitoring the running mean of
// its disagreement with GPS-reported velocity.
type GPSDetector struct {
	cfg       GPSDetectorConfig
	model     *AcousticModel
	threshold float64
}

// run drives a fresh monitor over a recorded flight's usable windows in
// order, recording every KF step into trace when it is non-nil. The
// windows are numbered consecutively, so a skipped window never reads as
// a stream hole.
func (d *GPSDetector) run(f *dataset.Flight, trace *GPSTrace) (GPSVerdict, error) {
	obs, err := flightObservations(d.model, f, 0)
	if err != nil {
		return GPSVerdict{}, err
	}
	if len(obs) == 0 {
		return GPSVerdict{}, fmt.Errorf("soundboost: no usable windows for GPS RCA")
	}
	// Initial velocity from the first GPS fix (pre-attack per threat model).
	var v0 mathx.Vec3
	if len(f.Telemetry) > 0 {
		v0 = f.Telemetry[0].GPSVel
	}
	m, err := d.NewMonitor(v0)
	if err != nil {
		return GPSVerdict{}, err
	}
	m.trace = trace
	for i, o := range obs {
		m.Add(i, o)
	}
	v, err := m.Finish()
	if err != nil {
		return GPSVerdict{}, err
	}
	return v, nil
}

// NewGPSDetector calibrates the detection threshold on benign flights:
// the maximum benign running-mean error after outlier removal, scaled by
// the margin.
func NewGPSDetector(model *AcousticModel, benignFlights []*dataset.Flight, cfg GPSDetectorConfig) (*GPSDetector, error) {
	if cfg.ThresholdMargin < 1 {
		cfg.ThresholdMargin = 1
	}
	if len(benignFlights) == 0 {
		return nil, fmt.Errorf("soundboost: GPS detector needs benign calibration flights")
	}
	if cfg.PeakQuantile <= 0 || cfg.PeakQuantile > 1 {
		cfg.PeakQuantile = 0.75
	}
	// Until the threshold is set the monitors never alarm, so each
	// verdict's PeakError is the flight's peak running-mean error.
	d := &GPSDetector{cfg: cfg, model: model, threshold: math.Inf(1)}
	span := gpsCalibTimer.Start()
	defer span.Stop()
	peaks, err := parallel.MapErr(0, len(benignFlights), func(i int) (float64, error) {
		v, err := d.run(benignFlights[i], nil)
		return v.PeakError, err
	})
	if err != nil {
		return nil, err
	}
	d.threshold = stats.Quantile(peaks, cfg.PeakQuantile) * cfg.ThresholdMargin
	if d.threshold <= 0 {
		return nil, fmt.Errorf("soundboost: degenerate GPS threshold %g", d.threshold)
	}
	return d, nil
}

// Threshold returns the calibrated alarm threshold.
func (d *GPSDetector) Threshold() float64 { return d.threshold }

// WithMargin returns a copy of the detector operating at a different
// threshold margin, re-derived exactly from the calibrated base: the
// threshold is benign-quantile × margin, so rescaling by
// margin/cfg.ThresholdMargin reproduces what a fresh calibration at the
// new margin would have produced — without re-running the benign
// flights. Sweeps use it to walk an operating curve from one
// calibration. margin must be positive (margins below 1 deliberately
// trade false positives for detection latency; NewGPSDetector clamps
// them, WithMargin does not).
func (d *GPSDetector) WithMargin(margin float64) (*GPSDetector, error) {
	if margin <= 0 {
		return nil, fmt.Errorf("soundboost: WithMargin: margin must be positive, got %g", margin)
	}
	d2 := *d
	d2.threshold = d.threshold / d.cfg.ThresholdMargin * margin
	d2.cfg.ThresholdMargin = margin
	return &d2, nil
}

// Mode returns the detector's KF mode.
func (d *GPSDetector) Mode() kalman.Mode { return d.cfg.Mode }

// Detect runs GPS RCA over a flight and returns the verdict.
func (d *GPSDetector) Detect(f *dataset.Flight) (GPSVerdict, error) {
	span := gpsDetectTimer.Start()
	defer span.Stop()
	return d.run(f, nil)
}

// Trace exposes the full diagnostic series (Fig. 7): the steps of the
// same monitor Detect drives, with the fused velocity integrated from
// the first GPS position.
func (d *GPSDetector) Trace(f *dataset.Flight) (*GPSTrace, error) {
	trace := &GPSTrace{}
	if _, err := d.run(f, trace); err != nil {
		return nil, err
	}
	var pos mathx.Vec3
	if len(f.Telemetry) > 0 {
		pos = f.Telemetry[0].GPSPos
	}
	hop := d.model.cfg.Signature.HopSeconds
	trace.FusedPos = make([]mathx.Vec3, len(trace.FusedVel))
	for i, v := range trace.FusedVel {
		pos = pos.Add(v.Scale(hop))
		trace.FusedPos[i] = pos
	}
	return trace, nil
}

// GPSMonitor is the GPS stage's detector. Fed one window observation at
// a time, it estimates the constant acceleration biases over the
// alignment phase, then steps the Kalman velocity fusion, the slow bias
// tracker and the running-mean error monitor, raising the alarm when the
// running error first crosses the threshold. Detect and Trace drive it
// over a recorded flight; the streaming engine drives it live.
//
// Observations carry a window index. A gap in the indices (a window the
// caller had to skip) ends the current analysis segment: the error
// monitor is calibrated on contiguous windows, so the next contiguous
// run starts a fresh alignment phase with the KF re-anchored at its
// first GPS velocity, and the verdict accumulates across segments.
type GPSMonitor struct {
	d   *GPSDetector
	hop float64

	// Per-segment recursion state (see startSegment).
	est        *kalman.VelocityEstimator
	mean       stats.RunningMean
	aligned    bool
	buf        []WindowObs
	alignN     int
	audioBias  mathx.Vec3
	imuBias    mathx.Vec3
	idx        int
	prevGPSVel mathx.Vec3

	lastWin int
	verdict GPSVerdict
	err     error
	// trace, when non-nil, records every KF step for Trace.
	trace *GPSTrace
}

// NewMonitor returns a monitor at the start of a flight, its KF seeded
// with the first GPS velocity fix v0 (pre-attack per the threat model).
func (d *GPSDetector) NewMonitor(v0 mathx.Vec3) (*GPSMonitor, error) {
	m := &GPSMonitor{
		d:       d,
		hop:     d.model.cfg.Signature.HopSeconds,
		lastWin: -1,
		verdict: GPSVerdict{Threshold: d.threshold},
	}
	if err := m.startSegment(v0); err != nil {
		return nil, err
	}
	return m, nil
}

// startSegment resets the recursion for a new analysis segment anchored
// at GPS velocity v0.
func (m *GPSMonitor) startSegment(v0 mathx.Vec3) error {
	est, err := kalman.NewVelocityEstimator(m.d.cfg.Velocity, v0)
	if err != nil {
		return err
	}
	m.est = est
	m.mean = stats.RunningMean{Alpha: m.d.cfg.ErrorAlpha}
	m.aligned = m.d.cfg.AlignSeconds <= 0
	m.buf, m.alignN, m.idx = nil, 0, 0
	m.audioBias, m.imuBias, m.prevGPSVel = mathx.Vec3{}, mathx.Vec3{}, mathx.Vec3{}
	return nil
}

// Add feeds window winIdx's observation; windows must arrive in index
// order and ones without a GPS fix are ignored. Observations inside the
// alignment phase are buffered and stepped once the phase ends.
func (m *GPSMonitor) Add(winIdx int, o WindowObs) {
	if m.err != nil || !o.hasGPS {
		return
	}
	if m.lastWin >= 0 && winIdx > m.lastWin+1 {
		// Close the interrupted segment (a partial alignment phase
		// still steps, with monitoring off) and start the next.
		m.finishAlign()
		if m.err != nil {
			return
		}
		gpsSegments.Inc()
		if m.err = m.startSegment(o.gpsVel); m.err != nil {
			return
		}
	}
	m.lastWin = winIdx
	if !m.aligned {
		if len(m.buf) == 0 || o.end-m.buf[0].end <= m.d.cfg.AlignSeconds {
			m.buf = append(m.buf, o)
			return
		}
		// o is the first observation past the alignment horizon.
		m.finishAlign()
	}
	m.step(o)
}

// finishAlign ends a pending alignment phase (attacks begin after
// take-off, so the opening seconds are trustworthy): it estimates the
// constant acceleration bias of each stream against the GPS velocity
// delta over the buffered observations, removes it, and steps the
// buffer through the KF with the error monitor off.
func (m *GPSMonitor) finishAlign() {
	if m.aligned {
		return
	}
	m.aligned = true
	m.alignN = len(m.buf)
	if m.alignN > 1 {
		var audioInt, imuInt mathx.Vec3
		for _, o := range m.buf {
			audioInt = audioInt.Add(o.audioNED.Scale(m.hop))
			imuInt = imuInt.Add(o.imuNED.Scale(m.hop))
		}
		alignT := float64(m.alignN) * m.hop
		dv := m.buf[m.alignN-1].gpsVel.Sub(m.buf[0].gpsVel)
		m.audioBias = audioInt.Sub(dv).Scale(1 / alignT)
		m.imuBias = imuInt.Sub(dv).Scale(1 / alignT)
	}
	for _, o := range m.buf {
		m.step(o)
	}
	m.buf = nil
}

// step advances the bias tracker, the KF and (past alignment) the error
// monitor by one observation.
func (m *GPSMonitor) step(o WindowObs) {
	if m.err != nil {
		return
	}
	i := m.idx
	if m.d.cfg.BiasTauSeconds > 0 && i >= 1 && i >= m.alignN {
		// Slow bias tracking against the GPS velocity derivative.
		gpsAccel := o.gpsVel.Sub(m.prevGPSVel).Scale(1 / m.hop)
		alpha := m.hop / m.d.cfg.BiasTauSeconds
		m.audioBias = m.audioBias.Add(o.audioNED.Sub(gpsAccel).Sub(m.audioBias).Scale(alpha))
		m.imuBias = m.imuBias.Add(o.imuNED.Sub(gpsAccel).Sub(m.imuBias).Scale(alpha))
	}
	if m.err = m.est.Step(o.audioNED.Sub(m.audioBias), o.imuNED.Sub(m.imuBias), m.hop); m.err != nil {
		return
	}
	fused := m.est.Velocity()
	var running float64
	if i >= m.alignN {
		running = m.mean.Add(fused.Sub(o.gpsVel).Norm())
		if running > m.verdict.PeakError {
			m.verdict.PeakError = running
		}
		if running > m.verdict.Threshold && !m.verdict.Attacked {
			m.verdict.Attacked = true
			m.verdict.DetectionTime = o.end
		}
	}
	if m.trace != nil {
		m.trace.Time = append(m.trace.Time, o.end)
		m.trace.FusedVel = append(m.trace.FusedVel, fused)
		m.trace.GPSVel = append(m.trace.GPSVel, o.gpsVel)
		m.trace.RunningError = append(m.trace.RunningError, running)
	}
	m.prevGPSVel = o.gpsVel
	m.idx++
}

// Verdict returns the verdict so far, without closing a pending
// alignment phase.
func (m *GPSMonitor) Verdict() GPSVerdict { return m.verdict }

// RunningError returns the current running-mean velocity error (0 while
// aligning).
func (m *GPSMonitor) RunningError() float64 { return m.mean.Mean() }

// Finish closes a flight that ended inside the alignment phase (its
// windows still step the KF, with monitoring off) and returns the final
// verdict with any KF error.
func (m *GPSMonitor) Finish() (GPSVerdict, error) {
	m.finishAlign()
	return m.verdict, m.err
}
