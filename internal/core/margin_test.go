package soundboost

import (
	"math"
	"testing"

	"soundboost/internal/kalman"
)

// TestGPSDetectorWithMargin pins the exact-rescale contract: the
// calibrated threshold is benign-quantile × margin, so WithMargin must
// reproduce precisely the threshold a fresh calibration at the new
// margin would have produced, and must leave the receiver untouched.
func TestGPSDetectorWithMargin(t *testing.T) {
	cfg := DefaultGPSDetectorConfig(kalman.ModeAudioIMU) // ThresholdMargin 1.1
	base := 0.42                                         // the calibrated benign quantile
	d := &GPSDetector{cfg: cfg, threshold: base * cfg.ThresholdMargin}

	for _, margin := range []float64{0.9, 1.0, 1.1, 1.5} {
		d2, err := d.WithMargin(margin)
		if err != nil {
			t.Fatalf("WithMargin(%g): %v", margin, err)
		}
		if got, want := d2.Threshold(), base*margin; math.Abs(got-want) > 1e-15 {
			t.Errorf("WithMargin(%g): threshold %g, want %g", margin, got, want)
		}
		if d2.cfg.ThresholdMargin != margin {
			t.Errorf("WithMargin(%g): cfg margin %g", margin, d2.cfg.ThresholdMargin)
		}
		if d2.Mode() != d.Mode() {
			t.Errorf("WithMargin(%g): mode changed to %q", margin, d2.Mode())
		}
	}
	// Receiver unchanged, and invalid margins rejected.
	if got := d.Threshold(); math.Abs(got-base*1.1) > 1e-15 {
		t.Errorf("receiver threshold mutated: %g", got)
	}
	for _, bad := range []float64{0, -1} {
		if _, err := d.WithMargin(bad); err == nil {
			t.Errorf("WithMargin(%g): want error", bad)
		}
	}
}

// TestAnalyzerWithGPSMargin checks the per-variant derivation: only the
// named variant's detector is replaced, the rest is shared, and unknown
// modes fail loudly.
func TestAnalyzerWithGPSMargin(t *testing.T) {
	mkDet := func(mode kalman.Mode, base float64) *GPSDetector {
		cfg := DefaultGPSDetectorConfig(mode)
		return &GPSDetector{cfg: cfg, threshold: base * cfg.ThresholdMargin}
	}
	a := &Analyzer{
		GPSAudioOnly: mkDet(kalman.ModeAudioOnly, 0.5),
		GPSAudioIMU:  mkDet(kalman.ModeAudioIMU, 0.3),
	}
	derived, err := a.WithGPSMargin(kalman.ModeAudioIMU, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := derived.GPSAudioIMU.Threshold(), 0.3*2.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("derived audio+imu threshold %g, want %g", got, want)
	}
	if derived.GPSAudioOnly != a.GPSAudioOnly {
		t.Error("audio-only detector should be shared, not copied")
	}
	if a.GPSAudioIMU.cfg.ThresholdMargin != 1.1 {
		t.Error("receiver's audio+imu detector mutated")
	}
	if _, err := a.WithGPSMargin(kalman.Mode("imu-only"), 1.2); err == nil {
		t.Error("unknown KF variant: want error")
	}
	if _, err := a.WithGPSMargin(kalman.ModeAudioOnly, -1); err == nil {
		t.Error("negative margin: want error")
	}
}
