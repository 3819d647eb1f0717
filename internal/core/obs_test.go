package soundboost

import (
	"testing"

	"soundboost/internal/obs"
)

// timerCount returns a reader of the named default-registry timer's
// span count.
func timerCount(name string) func() int64 {
	return func() int64 { return obs.Default.Snapshot().Timers[name].Count }
}

// withObs enables the observability layer for one test and restores
// the prior state afterwards.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() {
		if !prev {
			obs.Disable()
		}
	})
}

// TestStageTimersFireOncePerWindow pins the instrumentation contract:
// the window stage timer records exactly one span per extracted
// signature window, and the filter stage exactly one per extractor.
func TestStageTimersFireOncePerWindow(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	withObs(t)

	winTimer := timerCount("core.signature.window")
	filterTimer := timerCount("core.extract.filter")
	winBefore, filterBefore := winTimer(), filterTimer()

	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := filterTimer() - filterBefore; got != 1 {
		t.Errorf("filter timer fired %d times for one extractor, want 1", got)
	}

	starts := ex.WindowStarts(cfg.WindowSeconds)
	if len(starts) == 0 {
		t.Fatal("no windows in fixture flight")
	}
	for _, t0 := range starts {
		ex.Features(t0, cfg.WindowSeconds)
	}
	if got := winTimer() - winBefore; got != int64(len(starts)) {
		t.Errorf("window timer fired %d times for %d windows", got, len(starts))
	}

	// The contract holds on the parallel path too: BuildWindows fans
	// Features out across the pool but still calls it once per window.
	winBefore = winTimer()
	if _, err := BuildWindows(f, cfg, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := winTimer() - winBefore; got != int64(len(starts)) {
		t.Errorf("BuildWindows fired window timer %d times for %d windows", got, len(starts))
	}
}

// TestDetectorStageTimers pins one span per flight per RCA stage and
// one prediction span per analysed window.
func TestDetectorStageTimers(t *testing.T) {
	fx := getFixture(t)
	withObs(t)

	imuTimer := timerCount("core.rca.imu.detect")
	predictTimer := timerCount("core.predict")

	imu, err := NewIMUDetector(fx.model, fx.benign(), DefaultIMUDetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if timerCount("core.calibrate.imu")() == 0 {
		t.Error("IMU calibration span not recorded")
	}

	f := fx.heldout[0]
	imuBefore, predBefore := imuTimer(), predictTimer()
	if _, err := imu.Detect(f); err != nil {
		t.Fatal(err)
	}
	if got := imuTimer() - imuBefore; got != 1 {
		t.Errorf("IMU detect timer fired %d times for one flight, want 1", got)
	}

	ex, err := NewExtractor(f.Audio, fx.model.Config().Signature)
	if err != nil {
		t.Fatal(err)
	}
	// Detect predicts once per usable window; rejected windows (nil
	// features or empty telemetry) predict zero times.
	usable := 0
	win := fx.model.Config().Signature.WindowSeconds
	for _, t0 := range ex.WindowStarts(win) {
		if windowFeatures(ex, f, t0, win) != nil && len(f.TelemetryBetween(t0, t0+win)) > 0 {
			usable++
		}
	}
	if got := predictTimer() - predBefore; got != int64(usable) {
		t.Errorf("predict timer fired %d times for %d usable windows", got, usable)
	}
}

// TestDisabledLayerRecordsNothing pins the zero-cost contract's
// observable half: with the layer off, pipeline runs leave no trace.
func TestDisabledLayerRecordsNothing(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	if obs.Enabled() {
		t.Skip("obs layer enabled by another harness")
	}

	winTimer := timerCount("core.signature.window")
	before := winTimer()
	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, t0 := range ex.WindowStarts(cfg.WindowSeconds) {
		ex.Features(t0, cfg.WindowSeconds)
	}
	if got := winTimer() - before; got != 0 {
		t.Errorf("disabled layer recorded %d spans", got)
	}
}

// TestAnalyzeObservesOnce pins Analyze's single observation pass: the
// IMU and GPS stages share one set of window observations, so one
// full-pipeline Analyze filters the audio once, extracts each signature
// window once and predicts once per usable window.
func TestAnalyzeObservesOnce(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	f := fx.heldout[0]
	sig := fx.model.Config().Signature
	ex, err := NewExtractor(f.Audio, sig)
	if err != nil {
		t.Fatal(err)
	}
	starts := ex.WindowStarts(sig.WindowSeconds)
	usable := 0
	for _, t0 := range starts {
		if windowFeatures(ex, f, t0, sig.WindowSeconds) != nil && len(f.TelemetryBetween(t0, t0+sig.WindowSeconds)) > 0 {
			usable++
		}
	}
	if usable == 0 {
		t.Fatal("no usable windows in fixture flight")
	}

	withObs(t)
	filterTimer := timerCount("core.extract.filter")
	winTimer := timerCount("core.signature.window")
	predTimer := timerCount("core.predict")
	filterBefore, winBefore, predBefore := filterTimer(), winTimer(), predTimer()
	if _, err := an.Analyze(f); err != nil {
		t.Fatal(err)
	}
	if got := filterTimer() - filterBefore; got != 1 {
		t.Errorf("Analyze filtered the flight %d times, want 1", got)
	}
	if got := winTimer() - winBefore; got != int64(len(starts)) {
		t.Errorf("Analyze extracted %d signature windows for %d windows", got, len(starts))
	}
	if got := predTimer() - predBefore; got != int64(usable) {
		t.Errorf("Analyze predicted %d times for %d usable windows", got, usable)
	}
}
