package experiments

import (
	"math"
	"sync"
	"testing"

	"soundboost/internal/stats"
)

var (
	labOnce sync.Once
	lab     *Lab
	labErr  error
)

func getLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab, labErr = NewLab(QuickScale())
	})
	if labErr != nil {
		t.Fatalf("lab: %v", labErr)
	}
	return lab
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{PaperScale(), BenchScale(), QuickScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s scale invalid: %v", s.Name, err)
		}
	}
	bad := QuickScale()
	bad.TrainFlights = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero training flights accepted")
	}
	bad = QuickScale()
	bad.AeroFreq = bad.AudioRate
	if err := bad.Validate(); err == nil {
		t.Error("aero above Nyquist accepted")
	}
}

func TestGPSPeriodsDeterministic(t *testing.T) {
	s := QuickScale()
	a := s.GPSPeriods()
	b := s.GPSPeriods()
	if len(a) != s.GPSBenign+s.GPSAttack {
		t.Fatalf("period count %d, want %d", len(a), s.GPSBenign+s.GPSAttack)
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Duration != b[i].Duration {
			t.Fatal("periods not deterministic")
		}
		if a[i].Attack {
			if a[i].Window.Start <= 0 || a[i].Window.End > a[i].Duration {
				t.Errorf("period %d window %+v outside duration %v", i, a[i].Window, a[i].Duration)
			}
			if a[i].Offset.Norm() == 0 {
				t.Errorf("period %d has zero spoof offset", i)
			}
		}
	}
}

func TestIMUFlightsSpec(t *testing.T) {
	s := QuickScale()
	specs := s.IMUFlights()
	if len(specs) != s.IMUBenign+s.IMUAttack {
		t.Fatalf("flight count %d", len(specs))
	}
	modes := map[string]bool{}
	for _, spec := range specs {
		if spec.Attack {
			modes[string(spec.Mode)] = true
		}
	}
	if len(modes) != 2 {
		t.Errorf("attack modes %v, want both side-swing and dos", modes)
	}
}

func TestLabBuilds(t *testing.T) {
	l := getLab(t)
	if l.Model == nil {
		t.Fatal("no model")
	}
	if len(l.Calib) != QuickScale().CalibFlights {
		t.Errorf("calib flights %d", len(l.Calib))
	}
	if l.TestMSE <= 0 || l.TestMSE > 2 {
		t.Errorf("test MSE %v out of plausible range", l.TestMSE)
	}
	if l.IMUDetector == nil || l.GPSAudioOnly == nil || l.GPSAudioIMU == nil ||
		l.Failsafe == nil || l.LTIYaw == nil || l.LTIVx == nil || l.LTIVy == nil || l.DNN == nil {
		t.Error("missing calibrated detectors")
	}
	if an := l.Analyzer(); an == nil || an.Model != l.Model {
		t.Error("analyzer wiring wrong")
	}
}

func TestRunIMUExperiment(t *testing.T) {
	l := getLab(t)
	r, err := RunIMUExperiment(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttackFlights != QuickScale().IMUAttack {
		t.Errorf("attack flights %d", r.AttackFlights)
	}
	// The paper's headline: all IMU attacks detected, few benign alerts.
	if r.TPR < 0.99 {
		t.Errorf("IMU TPR %.2f, want 1.0 (per mode: %v)", r.TPR, r.PerMode)
	}
	if r.BenignAlerted > r.BenignFlights/2 {
		t.Errorf("too many benign alerts: %d/%d", r.BenignAlerted, r.BenignFlights)
	}
	if r.String() == "" {
		t.Error("empty summary")
	}
}

func TestRunTable2(t *testing.T) {
	l := getLab(t)
	r, err := RunTable2(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows %d, want 7", len(r.Rows))
	}
	byName := map[string]Table2Row{}
	for _, row := range r.Rows {
		byName[row.Detector] = row
		if row.BenignFlights != QuickScale().GPSBenign || row.AttackFlights != QuickScale().GPSAttack {
			t.Errorf("%s: wrong counts %+v", row.Detector, row)
		}
	}
	// Shape checks (quick scale is tiny, so only coarse ordering).
	sb := byName["soundboost audio+imu"]
	if sb.TPR < 0.5 {
		t.Errorf("audio+imu TPR %.2f too low", sb.TPR)
	}
	if r.String() == "" {
		t.Error("empty table rendering")
	}
}

func TestRunTable1(t *testing.T) {
	l := getLab(t) // ensures corpus generation paths are warm; lab unused otherwise
	_ = l
	s := QuickScale()
	s.Epochs = 25 // keep the 6-row sweep fast
	r, err := RunTable1(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows %d, want 6", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.TrainMSE <= 0 || row.ValMSE <= 0 || row.TestMSE <= 0 {
			t.Errorf("%s: non-positive MSE %+v", row.Label, row)
		}
		if math.IsNaN(row.ValMSE) {
			t.Errorf("%s: NaN MSE", row.Label)
		}
	}
	if r.Best == "" {
		t.Error("no best row")
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestRunTable3(t *testing.T) {
	l := getLab(t)
	r, err := RunTable3(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 8*4 {
		t.Fatalf("cells %d, want 32", len(r.Cells))
	}
	// Amplification on all four channels should not beat the clean
	// baseline TPR (attack degrades detection).
	var amp200ch4 Table3Cell
	for _, c := range r.Cells {
		if c.Amplitude == 2.0 && c.Channels == 4 {
			amp200ch4 = c
		}
	}
	if amp200ch4.TPR > r.BaselineTPR {
		t.Errorf("200%% amplification improved TPR: %.2f > baseline %.2f", amp200ch4.TPR, r.BaselineTPR)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestRunRealWorldInterference(t *testing.T) {
	l := getLab(t)
	r, err := RunRealWorldInterference(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d, want 5", len(r.Rows))
	}
	// Real-world (non-phase-synced) interference must leave predictions
	// close to clean (the paper reports no measurable effect).
	for _, row := range r.Rows {
		if math.Abs(row.MSEChangePc) > 60 {
			t.Errorf("%s at %.1fm changed MSE by %.1f%%, want small", row.Kind, row.Distance, row.MSEChangePc)
		}
	}
}

func TestRunFig2(t *testing.T) {
	r, err := RunFig2(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SpectrumFreqs) == 0 {
		t.Fatal("no spectrum")
	}
	// The three groups must rise above the gap.
	for _, g := range []string{"blade", "mech", "aero"} {
		if r.GroupPeaks[g] <= r.GroupPeaks["gap"] {
			t.Errorf("group %s (%.3f) not above gap (%.3f)", g, r.GroupPeaks[g], r.GroupPeaks["gap"])
		}
	}
	// Band amplitude correlates positively with thrust while maneuvering.
	for _, name := range []string{"accelerating", "decelerating"} {
		if s := r.Series[name]; s.Correlation < 0.2 {
			t.Errorf("%s correlation %.2f, want positive", name, s.Correlation)
		}
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestRunFig3(t *testing.T) {
	r, err := RunFig3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Factors) < 4 {
		t.Fatalf("factors %v", r.Factors)
	}
	// The 1x window must be identical to the base (distance 0).
	for i, f := range r.Factors {
		if f == 1 && r.FeatureDistance[i] > 1e-9 {
			t.Errorf("1x distance %v, want 0", r.FeatureDistance[i])
		}
	}
}

func TestRunFig6(t *testing.T) {
	l := getLab(t)
	r, err := RunFig6(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttackFit.Sigma <= r.BenignFit.Sigma {
		t.Errorf("attack sigma %.2f not wider than benign %.2f", r.AttackFit.Sigma, r.BenignFit.Sigma)
	}
	total := func(h *stats.Histogram) (n int) {
		for _, c := range h.Counts {
			n += c
		}
		return n
	}
	if total(r.BenignHist) == 0 || total(r.AttackHist) == 0 {
		t.Error("empty histograms")
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}

func TestRunFig7(t *testing.T) {
	l := getLab(t)
	r, err := RunFig7(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace.Time) == 0 {
		t.Fatal("empty trace")
	}
	if r.SpoofWindow[1] <= r.SpoofWindow[0] {
		t.Errorf("bad spoof window %v", r.SpoofWindow)
	}
}

func TestRunFrequencyImportance(t *testing.T) {
	l := getLab(t)
	rows, base, err := RunFrequencyImportance(l)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatalf("baseline MSE %v", base)
	}
	byGroup := map[string]ImportanceRow{}
	for _, r := range rows {
		byGroup[r.Group] = r
	}
	// §IV-A ordering: removing the aerodynamic group hurts most.
	aero := byGroup["aerodynamic"].Ratio
	if aero <= byGroup["blade-passing"].Ratio {
		t.Errorf("aero ratio %.2f not above blade %.2f", aero, byGroup["blade-passing"].Ratio)
	}
	if aero <= byGroup["other-noise"].Ratio {
		t.Errorf("aero ratio %.2f not above other-noise %.2f", aero, byGroup["other-noise"].Ratio)
	}
	if aero < 1.1 {
		t.Errorf("aero removal barely hurt: ratio %.2f", aero)
	}
}

func TestRunTiming(t *testing.T) {
	l := getLab(t)
	r, err := RunTiming(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.SignatureSecondsPerFlightSecond <= 0 {
		t.Error("no signature timing")
	}
	// Post hoc analysis must be far cheaper than the flight itself.
	if r.SignatureSecondsPerFlightSecond > 0.5 {
		t.Errorf("signature overhead %.2f s/s implausibly high", r.SignatureSecondsPerFlightSecond)
	}
}

func TestRunEndToEndRCA(t *testing.T) {
	l := getLab(t)
	outcomes, err := RunEndToEndRCA(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) < 3 {
		t.Fatalf("outcomes %d, want >= 3", len(outcomes))
	}
	for _, o := range outcomes {
		switch o.TrueKind {
		case "benign":
			if o.Cause != "none" {
				t.Errorf("%s: benign attributed to %s", o.Flight, o.Cause)
			}
		case "gps-drift":
			if o.Cause != "gps" {
				t.Errorf("%s: gps attack attributed to %s", o.Flight, o.Cause)
			}
		case "imu-side-swing", "imu-accel-dos":
			if o.Cause != "imu" && o.Cause != "imu+gps" {
				t.Errorf("%s: imu attack attributed to %s", o.Flight, o.Cause)
			}
		}
	}
}

func TestRunKFAblation(t *testing.T) {
	l := getLab(t)
	r, err := RunKFAblation(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d, want 5", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
		if row.Threshold <= 0 {
			t.Errorf("%s: degenerate threshold", row.Variant)
		}
	}
	// Removing bias tracking must not reduce the false-positive side below
	// the full pipeline's (it is there to suppress benign drift).
	full := byName["full audio+imu"]
	noTrack := byName["no bias tracking"]
	if noTrack.FPR+1e-9 < full.FPR {
		t.Errorf("no-tracking FPR %.2f below full %.2f", noTrack.FPR, full.FPR)
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}
