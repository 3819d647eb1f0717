package soundboost

import (
	"fmt"
	"strings"

	"soundboost/internal/dataset"
	"soundboost/internal/faults"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/triage"
)

// ErrNoFlight is returned by Analyze when given a nil flight or one with
// no telemetry and no audio — there is nothing to attribute a cause to.
// It aliases faults.ErrNoFlight, the repository-wide error set, so
// errors.Is matches under either name.
var ErrNoFlight = faults.ErrNoFlight

// RootCause is the outcome category of a full RCA run.
type RootCause string

const (
	// CauseNone: no sensor compromise found; the failure (if any) was not
	// attack-induced.
	CauseNone RootCause = "none"
	// CauseIMU: the IMU was compromised.
	CauseIMU RootCause = "imu"
	// CauseGPS: the GPS was compromised.
	CauseGPS RootCause = "gps"
	// CauseIMUAndGPS: both sensors were flagged.
	CauseIMUAndGPS RootCause = "imu+gps"
)

// Report is the result of SoundBoost's two-stage post-incident RCA.
type Report struct {
	// Flight names the analysed flight.
	Flight string
	// Cause is the attributed root cause.
	Cause RootCause
	// IMU is the stage-1 verdict.
	IMU IMUVerdict
	// GPS is the stage-2 verdict.
	GPS GPSVerdict
	// GPSMode records which KF variant stage 2 used (audio-only when the
	// IMU was flagged, audio+IMU otherwise).
	GPSMode kalman.Mode
	// Precision records the arithmetic the signature/inference hot path
	// ran under. The zero value means the bitwise-pinned Float64 default;
	// Float32 marks a report produced by the opt-in fast path, whose
	// per-feature error bound is Precision.Tolerance().
	Precision Precision
}

// String renders a human-readable RCA summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RCA report for flight %q\n", r.Flight)
	fmt.Fprintf(&b, "  root cause: %s\n", r.Cause)
	if r.IMU.Attacked {
		fmt.Fprintf(&b, "  IMU: ATTACKED (detected at t=%.1fs, %d/%d windows rejected, attack residual std %.2f)\n",
			r.IMU.DetectionTime, r.IMU.WindowsRejected, r.IMU.WindowsTested, r.IMU.AttackStd)
	} else {
		fmt.Fprintf(&b, "  IMU: intact (%d/%d windows rejected)\n", r.IMU.WindowsRejected, r.IMU.WindowsTested)
	}
	if r.GPS.Attacked {
		fmt.Fprintf(&b, "  GPS: SPOOFED (detected at t=%.1fs via %s KF, peak error %.2f > threshold %.2f)\n",
			r.GPS.DetectionTime, r.GPSMode, r.GPS.PeakError, r.GPS.Threshold)
	} else {
		fmt.Fprintf(&b, "  GPS: clean (peak error %.2f <= threshold %.2f via %s KF)\n",
			r.GPS.PeakError, r.GPS.Threshold, r.GPSMode)
	}
	return b.String()
}

// Analyzer bundles the trained model with calibrated detectors and runs
// the full RCA pipeline: first decide whether the IMU can be trusted, then
// run GPS detection with the strongest admissible KF variant.
type Analyzer struct {
	// Model is the trained acoustic model.
	Model *AcousticModel
	// IMU is the stage-1 detector.
	IMU *IMUDetector
	// GPSAudioOnly is used when the IMU is flagged compromised.
	GPSAudioOnly *GPSDetector
	// GPSAudioIMU is used when the IMU is trusted.
	GPSAudioIMU *GPSDetector
	// Triage is the optional screening tier (TrainTriage). When attached,
	// flights whose every window screens confident-benign short-circuit
	// Analyze with FastBenignReport instead of running the detectors;
	// any doubt escalates to the full pipeline. Nil disables screening.
	Triage *triage.Model
}

// NewAnalyzer calibrates all detectors, at their default
// configurations, from benign flights. The three calibrations are
// independent and run concurrently on the worker pool. WithPrecision
// selects the arithmetic they calibrate under.
func NewAnalyzer(model *AcousticModel, benignFlights []*dataset.Flight, opts ...AnalyzerOption) (*Analyzer, error) {
	if model == nil {
		return nil, fmt.Errorf("soundboost: nil model")
	}
	var o analyzerOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.precisionSet {
		var err error
		model, err = model.WithPrecision(o.precision)
		if err != nil {
			return nil, err
		}
	}
	span := analyzerCalibTimer.Start()
	defer span.Stop()
	var (
		imu                 *IMUDetector
		audioOnly, audioIMU *GPSDetector
	)
	err := parallel.Run(0,
		func() error {
			var err error
			imu, err = NewIMUDetector(model, benignFlights, DefaultIMUDetectorConfig())
			if err != nil {
				return fmt.Errorf("soundboost: IMU detector: %w", err)
			}
			return nil
		},
		func() error {
			var err error
			audioOnly, err = NewGPSDetector(model, benignFlights, DefaultGPSDetectorConfig(kalman.ModeAudioOnly))
			if err != nil {
				return fmt.Errorf("soundboost: audio-only GPS detector: %w", err)
			}
			return nil
		},
		func() error {
			var err error
			audioIMU, err = NewGPSDetector(model, benignFlights, DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
			if err != nil {
				return fmt.Errorf("soundboost: audio+IMU GPS detector: %w", err)
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	return &Analyzer{Model: model, IMU: imu, GPSAudioOnly: audioOnly, GPSAudioIMU: audioIMU}, nil
}

// WithGPSMargin returns a shallow copy of the analyzer whose GPS
// detector for the named KF variant runs at a different threshold
// margin (see GPSDetector.WithMargin — the rescale is exact, no
// recalibration). The other variant, the IMU detector, and the model
// are shared with the receiver, which stays usable unchanged. Sweeps
// derive one analyzer per (variant, margin) grid cell this way.
func (a *Analyzer) WithGPSMargin(mode kalman.Mode, margin float64) (*Analyzer, error) {
	clone := *a
	switch mode {
	case kalman.ModeAudioOnly:
		d, err := a.GPSAudioOnly.WithMargin(margin)
		if err != nil {
			return nil, err
		}
		clone.GPSAudioOnly = d
	case kalman.ModeAudioIMU:
		d, err := a.GPSAudioIMU.WithMargin(margin)
		if err != nil {
			return nil, err
		}
		clone.GPSAudioIMU = d
	default:
		return nil, fmt.Errorf("soundboost: WithGPSMargin: KF variant must be %q or %q, got %q",
			kalman.ModeAudioOnly, kalman.ModeAudioIMU, mode)
	}
	return &clone, nil
}

// Precision reports the arithmetic mode the analyzer's model runs
// under (the zero value of the model config reads back as Float64).
func (a *Analyzer) Precision() Precision {
	if a.Model == nil {
		return Float64
	}
	if p := a.Model.Precision(); p != "" {
		return p
	}
	return Float64
}

// WithPrecision returns a shallow copy of the analyzer whose signature
// extraction and inference hot path runs under the given precision. The
// calibrated thresholds are preserved exactly — no recalibration — so
// the copy is directly comparable to the receiver: the float32 path is
// verified corpus-wide to flip zero verdicts against float64 under the
// per-feature bound p.Tolerance(). The receiver stays usable unchanged;
// detector clones share everything but the re-precisioned model.
func (a *Analyzer) WithPrecision(p Precision) (*Analyzer, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	model, err := a.Model.WithPrecision(p)
	if err != nil {
		return nil, err
	}
	if model == a.Model {
		return a, nil
	}
	clone := *a
	clone.Model = model
	if a.IMU != nil {
		imu := *a.IMU
		imu.model = model
		clone.IMU = &imu
	}
	if a.GPSAudioOnly != nil {
		d := *a.GPSAudioOnly
		d.model = model
		clone.GPSAudioOnly = &d
	}
	if a.GPSAudioIMU != nil {
		d := *a.GPSAudioIMU
		d.model = model
		clone.GPSAudioIMU = &d
	}
	return &clone, nil
}

// Analyze runs the full two-stage RCA over a flight: it screens the
// flight when a triage tier is attached, then observes every usable
// window once and drives one Run over them. A nil or empty flight
// returns ErrNoFlight. On a stage error the partial report still
// carries a coherent GPSMode: the variant stage 2 would have used given
// what stage 1 concluded (audio+IMU until the IMU is flagged).
func (a *Analyzer) Analyze(f *dataset.Flight) (Report, error) {
	span := analyzeTimer.Start()
	defer span.Stop()
	if f == nil || (len(f.Telemetry) == 0 && (f.Audio == nil || f.Audio.Samples() == 0)) {
		return Report{GPSMode: a.GPSAudioIMU.Mode(), Precision: a.Precision()}, ErrNoFlight
	}
	// Screening tier: a flight whose every window is confident-benign
	// skips both detector stages. The screen only ever concludes "none",
	// so the verdict cannot flip relative to the full pipeline.
	if a.Triage != nil {
		if benign, _ := a.screenFlight(f); benign {
			reportsFastpath.Inc()
			return FastBenignReport(f.Name, a), nil
		}
	}
	partial := Report{Flight: f.Name, GPSMode: a.GPSAudioIMU.Mode(), Precision: a.Precision()}
	run, err := a.NewRun()
	if err != nil {
		return partial, err
	}
	obs, err := flightObservations(a.Model, f, 0)
	if err != nil {
		return partial, fmt.Errorf("soundboost: IMU stage: %w", err)
	}
	// Both KF variants start from the first GPS fix (pre-attack per the
	// threat model), as GPSDetector.Detect does.
	var v0 mathx.Vec3
	if len(f.Telemetry) > 0 {
		v0 = f.Telemetry[0].GPSVel
	}
	run.StartGPS(v0)
	for i, o := range obs {
		run.Add(i, o)
	}
	report, err := run.Finish(f.Name)
	if len(obs) == 0 {
		err = errNoGPSWindows
	}
	if err != nil {
		partial.IMU, partial.GPSMode = report.IMU, report.GPSMode
		return partial, fmt.Errorf("soundboost: GPS stage: %w", err)
	}
	if report.IMU.Attacked {
		reportsIMU.Inc()
	}
	if report.GPS.Attacked {
		reportsGPS.Inc()
	}
	return report, nil
}

// Run is one flight's pass through the two-stage RCA, fed one window
// observation at a time. It owns the stage-1 IMU monitor and one GPS
// monitor per KF variant: both variants run from the first GPS fix, so
// the stage-2 verdict can follow the IMU verdict retroactively —
// audio-only once the IMU is flagged, audio+IMU otherwise (paper
// §III-C). Analyze drives a Run over a recorded flight; the streaming
// engine drives one live. Both finish through Finish.
type Run struct {
	a   *Analyzer
	imu *IMUMonitor
	// gps holds the audio-only and the audio+IMU variant, in that order.
	gps     [2]gpsVariant
	started bool
}

// gpsVariant is one KF variant of a run: its detector, and the monitor
// (nil until StartGPS, or when StartGPS failed with err).
type gpsVariant struct {
	det *GPSDetector
	mon *GPSMonitor
	err error
}

// RunStatus is a run's live verdict state.
type RunStatus struct {
	// IMUAttacked and GPSAttacked are the verdicts so far (GPS per the
	// active KF variant).
	IMUAttacked bool
	GPSAttacked bool
	// ActiveMode is the KF variant stage 2 currently trusts, and
	// Threshold its calibrated alarm level.
	ActiveMode kalman.Mode
	Threshold  float64
	// RunningError and PeakError expose the active GPS monitor (0 before
	// the first GPS fix).
	RunningError float64
	PeakError    float64
}

// NewRun starts one flight's RCA pass. The pipeline observes the
// primary IMU only: an analyzer whose IMU detector selects a redundant
// unit (IMUDetectorConfig.Stream != 0, paper §V-B) runs standalone
// through IMUDetector.Detect, not through a Run.
func (a *Analyzer) NewRun() (*Run, error) {
	if a == nil || a.Model == nil || a.IMU == nil || a.GPSAudioOnly == nil || a.GPSAudioIMU == nil {
		return nil, fmt.Errorf("soundboost: nil or incomplete analyzer")
	}
	if err := checkPrimaryIMU(a.IMU.cfg); err != nil {
		return nil, err
	}
	return &Run{
		a:   a,
		imu: a.IMU.NewMonitor(),
		gps: [2]gpsVariant{{det: a.GPSAudioOnly}, {det: a.GPSAudioIMU}},
	}, nil
}

// checkPrimaryIMU rejects an IMU configuration the pipeline cannot run.
func checkPrimaryIMU(cfg IMUDetectorConfig) error {
	if cfg.Stream != 0 {
		return fmt.Errorf("soundboost: the RCA pipeline runs on the primary IMU stream (0), analyzer uses stream %d", cfg.Stream)
	}
	return nil
}

// StartGPS seeds both KF variants with the first GPS velocity fix v0.
// Only the first call counts; windows added before it reach the IMU
// stage only.
func (r *Run) StartGPS(v0 mathx.Vec3) {
	if r.started {
		return
	}
	r.started = true
	for i := range r.gps {
		r.gps[i].mon, r.gps[i].err = r.gps[i].det.NewMonitor(v0)
	}
}

// Add feeds window winIdx's observation to both stages. Windows arrive
// in index order; a gap in the indices restarts the GPS analysis
// segment (see GPSMonitor).
func (r *Run) Add(winIdx int, o WindowObs) {
	r.imu.Add(o)
	for _, g := range r.gps {
		if g.mon != nil {
			g.mon.Add(winIdx, o)
		}
	}
}

// Err reports whether seeding either KF variant failed. Finish returns
// the error only when stage 2 trusts the failed variant; a screening
// caller treats any failure as doubt.
func (r *Run) Err() error {
	for _, g := range r.gps {
		if g.err != nil {
			return g.err
		}
	}
	return nil
}

// active returns the KF variant stage 2 trusts given the IMU verdict.
func (r *Run) active(imuAttacked bool) *gpsVariant {
	if imuAttacked {
		return &r.gps[0]
	}
	return &r.gps[1]
}

// Status returns the run's live verdict state.
func (r *Run) Status() RunStatus {
	imu := r.imu.Verdict().Attacked
	g := r.active(imu)
	s := RunStatus{IMUAttacked: imu, ActiveMode: g.det.Mode(), Threshold: g.det.Threshold()}
	if g.mon != nil {
		v := g.mon.Verdict()
		s.GPSAttacked, s.RunningError, s.PeakError = v.Attacked, g.mon.RunningError(), v.PeakError
	}
	return s
}

// Finish closes the run and assembles the flight's report: the stage-1
// verdict picks the stage-2 KF variant, and the two verdicts attribute
// the cause. The error is the trusted variant's seeding or KF error;
// the report is complete either way.
func (r *Run) Finish(flight string) (Report, error) {
	imuV := r.imu.Finish()
	g := r.active(imuV.Attacked)
	report := Report{
		Flight:    flight,
		IMU:       imuV,
		GPS:       GPSVerdict{Threshold: g.det.Threshold()},
		GPSMode:   g.det.Mode(),
		Precision: r.a.Precision(),
	}
	err := g.err
	if g.mon != nil {
		report.GPS, err = g.mon.Finish()
	}
	switch {
	case imuV.Attacked && report.GPS.Attacked:
		report.Cause = CauseIMUAndGPS
	case imuV.Attacked:
		report.Cause = CauseIMU
	case report.GPS.Attacked:
		report.Cause = CauseGPS
	default:
		report.Cause = CauseNone
	}
	return report, err
}
