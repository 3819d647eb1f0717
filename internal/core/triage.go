package soundboost

import (
	"fmt"
	"math"

	"soundboost/internal/dataset"
	"soundboost/internal/dsp"
	"soundboost/internal/mathx"
	"soundboost/internal/triage"
)

// triageGPSOnsetSeconds bounds the post-onset region of a GPS attack
// whose windows train as anomalous. A spoof is acoustically and (for the
// cross-check features) telemetrically loud only while the KF state is
// being pulled; later windows look quiet again, and labelling them
// anomalous would smear the anomalous class across the benign manifold.
// Post-onset windows are excluded from training entirely — the
// flight-level policy (one escalated window escalates the flight) makes
// a hot onset sufficient.
const triageGPSOnsetSeconds = 2.0

// triageWindow is one screening window of a flight on the batch path.
type triageWindow struct {
	t0, t1 float64
	// feat is the raw triage feature vector; nil when the window is
	// unusable (too short, non-finite audio, no IMU rows) — the screen
	// must escalate such windows.
	feat []float64
}

// forEachTriageWindow enumerates the flight's screening windows on the
// streaming engine's window grid: the causal low-pass on the primary
// mic, the half-open [t0, t1) telemetry selection, rows shed by
// FiniteIMURow / FiniteGPSRow, and features from TriageFeatures — the
// same grid and the same shared code the engine screens with, so batch,
// streamed, and served triage decisions agree for the same flight. fn
// returns false to stop early.
func forEachTriageWindow(f *dataset.Flight, sig SignatureConfig, fc triage.FeatureConfig, fn func(w triageWindow) bool) error {
	rec := f.Audio
	if rec == nil || rec.Samples() == 0 {
		return fmt.Errorf("soundboost: triage: flight %q has no audio", f.Name)
	}
	rate := rec.SampleRate
	if err := sig.ValidateForRate(rate); err != nil {
		return err
	}
	// The fast path filters only the primary mic — a quarter of the full
	// extractor's filtering work.
	audio := rec.Channels[0]
	if sig.LowPassHz > 0 && sig.LowPassHz < rate/2 {
		lp, err := dsp.NewLowPass(sig.LowPassHz, rate)
		if err != nil {
			return err
		}
		audio = lp.ProcessAll(audio)
	}

	// Shed non-finite telemetry rows with the engine's ingest predicates.
	// Rows are already time-sorted.
	imuRows := make([]triage.IMUPoint, 0, len(f.Telemetry))
	imuTimes := make([]float64, 0, len(f.Telemetry))
	gpsRows := make([]triage.GPSPoint, 0, len(f.Telemetry))
	for _, s := range f.Telemetry {
		if FiniteIMURow(s.Time, s.IMUAccel, s.EstAtt) {
			imuRows = append(imuRows, triage.IMUPoint{Accel: s.IMUAccel, Gyro: s.IMUGyro})
			imuTimes = append(imuTimes, s.Time)
		}
		if FiniteGPSRow(s.Time, s.GPSPos, s.GPSVel) {
			gpsRows = append(gpsRows, triage.GPSPoint{Time: s.Time, Pos: s.GPSPos, Vel: s.GPSVel})
		}
	}

	win := sig.WindowSeconds
	hop := sig.HopSeconds
	total := int(win * rate)
	written := len(audio)
	imuLo, gpsLo := 0, 0
	for i := 0; ; i++ {
		t0 := float64(i) * hop
		start := int(t0 * rate)
		t1 := t0 + win
		if start+total > written || t1 > float64(written)/rate {
			return nil
		}
		for imuLo < len(imuRows) && imuTimes[imuLo] < t0 {
			imuLo++
		}
		imuHi := imuLo
		for imuHi < len(imuRows) && imuTimes[imuHi] < t1 {
			imuHi++
		}
		for gpsLo < len(gpsRows) && gpsRows[gpsLo].Time < t0 {
			gpsLo++
		}
		gpsHi := gpsLo
		for gpsHi < len(gpsRows) && gpsRows[gpsHi].Time < t1 {
			gpsHi++
		}
		w := triageWindow{t0: t0, t1: t1}
		if imuHi > imuLo {
			w.feat = TriageFeatures(sig, fc, audio[start:start+total], rate, imuRows[imuLo:imuHi], gpsRows[gpsLo:gpsHi])
		}
		if !fn(w) {
			return nil
		}
	}
}

// TriageFeatures is the screening tier's feature vector for one window
// of primary-mic audio and its telemetry, under the signature precision:
// Float32 swaps in the real-input float32 spectral kernel. Nil marks a
// window the screen must escalate (too short, no IMU rows).
func TriageFeatures(sig SignatureConfig, fc triage.FeatureConfig, audio []float64, rate float64, imu []triage.IMUPoint, gps []triage.GPSPoint) []float64 {
	if sig.Precision == Float32 {
		return fc.Features32(audio, rate, imu, gps)
	}
	return fc.Features(audio, rate, imu, gps)
}

// FiniteIMURow reports whether an IMU telemetry row is usable: finite
// time, accelerometer and attitude. Rows failing it are shed at ingest.
func FiniteIMURow(t float64, accel mathx.Vec3, att mathx.Quat) bool {
	return finite(t) && accel.IsFinite() && finite(att.W+att.X+att.Y+att.Z)
}

// FiniteGPSRow reports whether a GPS fix is usable: finite time,
// position and velocity.
func FiniteGPSRow(t float64, pos, vel mathx.Vec3) bool {
	return finite(t) && pos.IsFinite() && vel.IsFinite()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// screenFlight runs the triage tier over a whole flight. The flight
// fast-paths only when every window screens confident-benign; any
// unusable or doubtful window escalates. maxDist is the largest
// neighbour distance among benign-screened windows — the verification
// pass tightens the radius to just below it to force a flight off the
// fast path.
func (a *Analyzer) screenFlight(f *dataset.Flight) (benign bool, maxDist float64) {
	if a.Triage == nil {
		return false, 0
	}
	span := triageScreenTimer.Start()
	defer span.Stop()
	sig := a.Model.Config().Signature
	benign = true
	windows := 0
	err := forEachTriageWindow(f, sig, a.Triage.Config().Features, func(w triageWindow) bool {
		windows++
		d := a.Triage.Classify(w.feat)
		if !d.Benign {
			benign = false
			return false
		}
		if d.Distance > maxDist {
			maxDist = d.Distance
		}
		return true
	})
	if err != nil || windows == 0 {
		return false, maxDist
	}
	return benign, maxDist
}

// FastBenignReport is the cheap verdict emitted when the triage tier
// screens an entire flight benign. It is built identically on the
// batch, streaming, and served paths, so a screened flight's report is
// path-independent: cause "none", the default (audio+IMU) KF variant,
// and its calibrated threshold, with no per-window detector detail —
// the full pipeline never ran.
func FastBenignReport(flight string, a *Analyzer) Report {
	return Report{
		Flight:    flight,
		Cause:     CauseNone,
		GPSMode:   a.GPSAudioIMU.Mode(),
		GPS:       GPSVerdict{Threshold: a.GPSAudioIMU.Threshold()},
		Precision: a.Precision(),
	}
}

// WithoutTriage returns an analyzer identical to the receiver but with
// the screening tier detached — every flight takes the full pipeline.
// The receiver is unchanged (shallow clone, like WithGPSMargin); when
// no tier is attached the receiver itself is returned.
func (a *Analyzer) WithoutTriage() *Analyzer {
	if a.Triage == nil {
		return a
	}
	clone := *a
	clone.Triage = nil
	return &clone
}

// triageLabel assigns the training label for a window [t0, t1) of a
// flight with the given scenario. Only windows fully inside the attack
// region train as anomalous; windows straddling an attack edge are
// mixed content and dropped (include=false), as are GPS post-onset
// windows (neither cleanly benign nor usefully anomalous). An edge
// window labelled anomalous would plant an anomalous prototype deep in
// the benign manifold and poison the zero-anomalous-neighbour vote for
// ordinary benign windows.
func triageLabel(meta dataset.ScenarioMeta, t0, t1 float64) (anomalous, include bool) {
	if !meta.IsAttack() {
		return false, true
	}
	w := meta.Window
	switch meta.Kind {
	case "gps-static", "gps-drift":
		if t0 >= w.Start && t1 <= w.Start+triageGPSOnsetSeconds {
			return true, true
		}
		if (t1 > w.Start && t0 < w.End) || t0 >= w.End {
			return false, false
		}
		return false, true
	default:
		// IMU injection (and any future kind): anomalous when fully
		// inside the attack window, benign when fully outside it.
		if t0 >= w.Start && t1 <= w.End {
			return true, true
		}
		if t1 > w.Start && t0 < w.End {
			return false, false
		}
		return false, true
	}
}

// TrainTriage fits the screening tier from a labelled corpus — the same
// flights that train and calibrate the full pipeline, benign and
// attacked alike (an all-benign corpus yields a one-class model).
// Windows are labelled from scenario metadata: benign flights
// contribute benign windows, IMU attacks mark their whole attack window
// anomalous, GPS attacks mark only the spoof onset (and drop the quiet
// post-onset tail).
func TrainTriage(flights []*dataset.Flight, sig SignatureConfig, cfg triage.Config) (*triage.Model, error) {
	span := triageTrainTimer.Start()
	defer span.Stop()
	if len(cfg.Features.Bands) == 0 {
		cfg.Features.Bands = sig.Bands
	}
	var samples []triage.Sample
	for _, f := range flights {
		if f.Audio == nil || f.Audio.Samples() == 0 {
			continue
		}
		err := forEachTriageWindow(f, sig, cfg.Features, func(w triageWindow) bool {
			if w.feat == nil {
				return true
			}
			if anom, include := triageLabel(f.Scenario, w.t0, w.t1); include {
				samples = append(samples, triage.Sample{Features: w.feat, Anomalous: anom})
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("soundboost: triage training on %q: %w", f.Name, err)
		}
	}
	return triage.Train(samples, cfg)
}

// VerifyTriage enforces the zero verdict-flip guarantee on a corpus: for
// every flight whose full-pipeline cause is not "none", the screening
// tier must escalate. Any violating flight has the benign radius
// tightened to just below its largest window distance, which flips that
// flight off the fast path without ever doing the reverse (Tighten is
// one-directional). Returns the fast-path / escalated flight counts
// after enforcement. An error means the guarantee cannot be enforced by
// radius alone (degenerate zero-distance windows) — callers should drop
// the tier rather than ship it.
func (a *Analyzer) VerifyTriage(flights []*dataset.Flight) (fastpath, escalated int, err error) {
	if a.Triage == nil {
		return 0, 0, fmt.Errorf("soundboost: VerifyTriage: no triage tier attached")
	}
	full := a.WithoutTriage()
	for _, f := range flights {
		report, aerr := full.Analyze(f)
		if aerr != nil {
			// The full pipeline cannot analyse this flight; the screen
			// must not fast-path it either.
			for {
				benign, maxDist := a.screenFlight(f)
				if !benign {
					break
				}
				if maxDist <= 0 {
					return 0, 0, fmt.Errorf("soundboost: VerifyTriage: flight %q screens benign at zero distance", f.Name)
				}
				a.Triage.Tighten(maxDist * 0.999)
			}
			continue
		}
		if report.Cause == CauseNone {
			continue
		}
		for {
			benign, maxDist := a.screenFlight(f)
			if !benign {
				break
			}
			if maxDist <= 0 {
				return 0, 0, fmt.Errorf("soundboost: VerifyTriage: flight %q screens benign at zero distance", f.Name)
			}
			// One tighten flips the arg-max window: its distance now
			// exceeds the (possibly SNR-shrunk) radius.
			a.Triage.Tighten(maxDist * 0.999)
		}
	}
	for _, f := range flights {
		if benign, _ := a.screenFlight(f); benign {
			fastpath++
		} else {
			escalated++
		}
	}
	return fastpath, escalated, nil
}
