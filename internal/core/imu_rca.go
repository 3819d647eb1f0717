package soundboost

import (
	"fmt"
	"math"

	"soundboost/internal/dataset"
	"soundboost/internal/parallel"
	"soundboost/internal/stats"
)

// IMUDetectorConfig tunes the IMU-attack RCA stage (§III-C1).
type IMUDetectorConfig struct {
	// StatMargin scales the calibrated benign KS-statistic threshold
	// (>= 1). Residuals within one window share the window's prediction
	// error, so the detector pools residuals over a sliding period of
	// windows and calibrates the KS statistic empirically on benign
	// periods rather than relying on the i.i.d. p-value.
	StatMargin float64
	// TrimSigma removes benign-statistic outliers before taking the max.
	TrimSigma float64
	// PeriodWindows is how many consecutive signature windows pool into
	// one KS detection period (window-level prediction offsets average
	// out across a period; attack shifts persist).
	PeriodWindows int
	// DetectPeriods is how many consecutive periods must exceed the
	// threshold before an alarm — suppresses isolated turbulence.
	DetectPeriods int
	// MinResiduals is the minimum residual count for a valid KS test.
	MinResiduals int
	// Stream selects the analysed IMU: 0 is the primary, k > 0 is
	// redundant unit k-1. Vehicles with multiple IMUs run one detector per
	// stream with separately learned thresholds (paper §V-B), so a
	// resonant injection tuned to one sensor model is attributed to that
	// unit alone.
	Stream int
}

// DefaultIMUDetectorConfig returns the tuned configuration.
func DefaultIMUDetectorConfig() IMUDetectorConfig {
	return IMUDetectorConfig{StatMargin: 1.1, TrimSigma: 4, PeriodWindows: 8, DetectPeriods: 2, MinResiduals: 20}
}

// IMUDetector flags IMU biasing attacks by comparing audio acceleration
// predictions against logged IMU measurements: benign residuals follow the
// normal distribution fitted at calibration; attack residuals deviate, and
// the per-window Kolmogorov-Smirnov statistic crosses the calibrated
// benign ceiling.
type IMUDetector struct {
	cfg    IMUDetectorConfig
	model  *AcousticModel
	benign stats.Normal
	// statThreshold is the alarm level on the per-period KS statistic.
	statThreshold float64
	// stdThreshold is the alarm level on the per-period residual standard
	// deviation. DoS-style injections widen the residual distribution
	// without shifting it; the KS statistic alone is weak against pure
	// variance inflation at realistic benign jitter, so both statistics
	// are calibrated (Fig. 6's signature is exactly sigma inflation).
	stdThreshold float64
}

// NewIMUDetector calibrates the benign residual distribution and the
// benign per-period KS-statistic ceiling from benign flights. The benign
// set should span the mission diversity expected at analysis time.
func NewIMUDetector(model *AcousticModel, benignFlights []*dataset.Flight, cfg IMUDetectorConfig) (*IMUDetector, error) {
	if cfg.StatMargin < 1 {
		return nil, fmt.Errorf("soundboost: KS stat margin %g must be >= 1", cfg.StatMargin)
	}
	if cfg.DetectPeriods < 1 {
		cfg.DetectPeriods = 1
	}
	span := imuCalibTimer.Start()
	defer span.Stop()
	perFlight, err := parallel.MapErr(0, len(benignFlights), func(i int) ([]WindowObs, error) {
		return flightObservations(model, benignFlights[i], cfg.Stream)
	})
	if err != nil {
		return nil, err
	}
	var pool []float64
	for _, obs := range perFlight {
		for _, o := range obs {
			pool = append(pool, o.residuals...)
		}
	}
	benign, err := stats.FitNormal(pool)
	if err != nil {
		return nil, fmt.Errorf("soundboost: fit benign residuals: %w", err)
	}
	// The thresholds come from the periods the monitor tests; until they
	// are set, it never alarms.
	d := &IMUDetector{cfg: cfg, model: model, benign: benign, statThreshold: math.Inf(1), stdThreshold: math.Inf(1)}
	var ksStats, stds []float64
	for _, obs := range perFlight {
		m := d.NewMonitor()
		for _, o := range obs {
			if stat, std, ok := m.Add(o); ok {
				ksStats = append(ksStats, stat)
				stds = append(stds, std)
			}
		}
	}
	if len(ksStats) == 0 {
		return nil, fmt.Errorf("soundboost: no benign periods for KS calibration")
	}
	d.statThreshold = stats.Max(stats.TrimOutliers(ksStats, cfg.TrimSigma)) * cfg.StatMargin
	d.stdThreshold = stats.Max(stats.TrimOutliers(stds, cfg.TrimSigma)) * cfg.StatMargin
	return d, nil
}

// BenignDistribution returns the calibrated benign residual normal.
func (d *IMUDetector) BenignDistribution() stats.Normal { return d.benign }

// StatThreshold returns the calibrated per-period KS-statistic ceiling.
func (d *IMUDetector) StatThreshold() float64 { return d.statThreshold }

// StdThreshold returns the calibrated per-period residual-sigma ceiling.
func (d *IMUDetector) StdThreshold() float64 { return d.stdThreshold }

// IMUVerdict is the outcome of the IMU RCA stage on one flight.
type IMUVerdict struct {
	// Attacked reports whether an IMU attack was flagged.
	Attacked bool
	// DetectionTime is the flight time (s) of the first alarmed window
	// (valid when Attacked).
	DetectionTime float64
	// WindowsTested and WindowsRejected summarise the KS sweep.
	WindowsTested   int
	WindowsRejected int
	// AttackStd is the residual standard deviation over rejected windows
	// (Fig. 6's widened distribution), 0 when benign.
	AttackStd float64
}

// Detect runs the IMU RCA stage over a flight: it observes every usable
// window and drives one monitor over them in window order.
func (d *IMUDetector) Detect(f *dataset.Flight) (IMUVerdict, error) {
	span := imuDetectTimer.Start()
	defer span.Stop()
	obs, err := flightObservations(d.model, f, d.cfg.Stream)
	if err != nil {
		return IMUVerdict{}, err
	}
	m := d.NewMonitor()
	for _, o := range obs {
		m.Add(o)
	}
	return m.Finish(), nil
}

// maxRejectedVals bounds the residual pool an IMU monitor retains for the
// AttackStd estimate on an endless attacked stream; past it the spread
// estimate freezes on the first samples rather than growing without
// bound.
const maxRejectedVals = 1 << 20

// IMUMonitor is the IMU stage's detector. Fed one window observation at
// a time, it pools the residuals of the last PeriodWindows windows into
// one KS-test period per window, applies the calibrated statistic and
// sigma thresholds, and raises the alarm after DetectPeriods consecutive
// rejected periods. Detect drives it over a recorded flight; the
// streaming engine drives it live.
type IMUMonitor struct {
	d           *IMUDetector
	period      int
	ring        [][]float64
	consecutive int
	verdict     IMUVerdict
	// rejectedVals pools the residuals of rejected periods (overlapping
	// periods contribute their shared windows again) for AttackStd.
	rejectedVals []float64
}

// NewMonitor returns a monitor at the start of a flight.
func (d *IMUDetector) NewMonitor() *IMUMonitor {
	return &IMUMonitor{d: d, period: max(d.cfg.PeriodWindows, 1)}
}

// Add feeds the next window. When the window completes a testable
// period it returns that period's KS statistic and residual standard
// deviation with ok true. A period with too few residuals, or one the KS
// test rejects as input, yields ok false and leaves the run of
// consecutive rejected periods as it was.
func (m *IMUMonitor) Add(o WindowObs) (stat, std float64, ok bool) {
	m.ring = append(m.ring, o.residuals)
	if len(m.ring) > m.period {
		m.ring = m.ring[1:]
	}
	if len(m.ring) < m.period {
		return 0, 0, false
	}
	var pool []float64
	for _, vals := range m.ring {
		pool = append(pool, vals...)
	}
	if len(pool) < m.d.cfg.MinResiduals {
		return 0, 0, false
	}
	res, err := stats.KSTestNormal(pool, m.d.benign)
	if err != nil {
		return 0, 0, false
	}
	std = stats.StdDev(pool)
	m.verdict.WindowsTested++
	if res.Statistic > m.d.statThreshold || std > m.d.stdThreshold {
		m.verdict.WindowsRejected++
		m.consecutive++
		if len(m.rejectedVals) < maxRejectedVals {
			m.rejectedVals = append(m.rejectedVals, pool...)
		}
		if m.consecutive >= m.d.cfg.DetectPeriods && !m.verdict.Attacked {
			m.verdict.Attacked = true
			m.verdict.DetectionTime = o.end
		}
	} else {
		m.consecutive = 0
	}
	return res.Statistic, std, true
}

// Verdict returns the verdict so far. AttackStd stays 0 until Finish.
func (m *IMUMonitor) Verdict() IMUVerdict { return m.verdict }

// Finish returns the final verdict, with the residual spread over the
// rejected periods (Fig. 6's widened sigma) when attacked.
func (m *IMUMonitor) Finish() IMUVerdict {
	v := m.verdict
	if v.Attacked && len(m.rejectedVals) > 1 {
		v.AttackStd = stats.StdDev(m.rejectedVals)
	}
	return v
}

// ResidualHistogram builds the Fig. 6 residual histogram (z-axis residuals
// pooled over the whole flight).
func (d *IMUDetector) ResidualHistogram(f *dataset.Flight, lo, hi float64, bins int) (*stats.Histogram, error) {
	obs, err := flightObservations(d.model, f, 0)
	if err != nil {
		return nil, err
	}
	h := stats.NewHistogram(lo, hi, bins)
	for _, o := range obs {
		for _, v := range o.residuals {
			h.Add(v)
		}
	}
	return h, nil
}
