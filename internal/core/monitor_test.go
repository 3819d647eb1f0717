package soundboost

import (
	"math"
	"testing"

	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
)

// TestCalibrationPinned pins the calibrated thresholds bit for bit on the
// core fixture. Calibration collects its statistics from the same
// monitors Detect drives, so any drift in the period pooling, the KS
// sweep, the bias alignment or the KF recursion moves these bits.
func TestCalibrationPinned(t *testing.T) {
	fx := getFixture(t)
	imu, err := NewIMUDetector(fx.model, fx.calib, DefaultIMUDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{
		"imu.stat": imu.StatThreshold(),
		"imu.std":  imu.StdThreshold(),
	}
	for _, mode := range []kalman.Mode{kalman.ModeAudioOnly, kalman.ModeAudioIMU} {
		d, err := NewGPSDetector(fx.model, fx.calib, DefaultGPSDetectorConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		got["gps."+string(mode)] = d.Threshold()
	}
	want := map[string]uint64{
		"imu.stat":                            0x3fd9323342511cb1,
		"imu.std":                             0x3ff4df5dc15ace77,
		"gps." + string(kalman.ModeAudioOnly): 0x3ff35147e6421f91,
		"gps." + string(kalman.ModeAudioIMU):  0x3feb6cd0259d6211,
	}
	for name, bits := range want {
		if g := math.Float64bits(got[name]); g != bits {
			t.Errorf("%s threshold = %v (bits %#x), pinned %v (bits %#x)", name, got[name], g, math.Float64frombits(bits), bits)
		}
	}
}

// TestTraceAgreesWithDetect checks that the Fig. 7 trace and the verdict
// come from one recursion: the trace's peak running error is the
// verdict's PeakError and its first threshold crossing is the verdict's
// DetectionTime, on an attacked and on a benign flight.
func TestTraceAgreesWithDetect(t *testing.T) {
	fx := getFixture(t)
	det, err := NewGPSDetector(fx.model, fx.calib, DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		f        *dataset.Flight
		attacked bool
	}{
		{"attacked", gpsAttackFlight(t, 1500), true},
		{"benign", fx.heldout[0], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := det.Detect(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if v.Attacked != tc.attacked {
				t.Fatalf("verdict attacked = %v, want %v", v.Attacked, tc.attacked)
			}
			trace, err := det.Trace(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			peak, crossed, at := 0.0, false, 0.0
			for i, e := range trace.RunningError {
				peak = math.Max(peak, e)
				if e > v.Threshold && !crossed {
					crossed, at = true, trace.Time[i]
				}
			}
			if peak != v.PeakError {
				t.Errorf("trace peak %v, verdict PeakError %v", peak, v.PeakError)
			}
			if crossed != v.Attacked || at != v.DetectionTime {
				t.Errorf("trace crossing (%v at %v), verdict (%v at %v)", crossed, at, v.Attacked, v.DetectionTime)
			}
		})
	}
}
