package soundboost

import (
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/sensors"
)

// WindowObs is what one signature window contributes to the two RCA
// stages: the z-axis prediction residuals the IMU monitor pools into KS
// periods, and the NED accelerations and GPS velocity the GPS monitor
// fuses. ObserveWindow builds it.
type WindowObs struct {
	// start and end bound the window (flight seconds).
	start, end float64
	// residuals are the per-IMU-sample z-axis prediction residuals.
	residuals []float64
	// audioNED and imuNED are the predicted and the window-mean measured
	// accelerations, rotated to NED with gravity restored.
	audioNED, imuNED mathx.Vec3
	// gpsVel is the window-mean GPS velocity; hasGPS reports whether the
	// window held any GPS fix (the GPS monitor skips windows without).
	gpsVel mathx.Vec3
	hasGPS bool
}

// ObserveWindow turns one window's acoustic acceleration prediction (body
// frame), the autopilot attitude at its middle, its IMU accelerometer
// samples (at least one) and its GPS velocity fixes into the detector
// observation. It is the single place both the batch detectors and the
// streaming engine build detector input, so the two feed the monitors
// identical bits.
func ObserveWindow(start, window float64, pred mathx.Vec3, att mathx.Quat, imuAccel, gpsVel []mathx.Vec3) WindowObs {
	o := WindowObs{start: start, end: start + window, residuals: make([]float64, len(imuAccel))}
	// z-axis (downward) residuals only: the thrust axis is the one the
	// acoustic channel predicts in every flight regime, and it is the
	// axis the paper's IMU attacks tamper with (Fig. 6). Horizontal
	// residuals shift with airspeed-dependent drag and would alias
	// aggressive-but-benign maneuvers into attacks.
	var imuSum mathx.Vec3
	for i, a := range imuAccel {
		o.residuals[i] = pred.Z - a.Z
		imuSum = imuSum.Add(a)
	}
	gravity := mathx.Vec3{Z: sensors.Gravity}
	o.audioNED = att.Rotate(pred).Add(gravity)
	o.imuNED = att.Rotate(imuSum.Scale(1 / float64(len(imuAccel)))).Add(gravity)
	// Window-mean GPS velocity: the fused estimate integrates window-mean
	// accelerations, so the reference must share its timebase or turns
	// read as spurious error.
	if len(gpsVel) > 0 {
		var gpsSum mathx.Vec3
		for _, v := range gpsVel {
			gpsSum = gpsSum.Add(v)
		}
		o.gpsVel = gpsSum.Scale(1 / float64(len(gpsVel)))
		o.hasGPS = true
	}
	return o
}

// flightObservations observes every usable window of a recorded flight
// against the selected IMU stream (0 = primary, k > 0 = redundant unit
// k-1). A window is usable when its features extract and the stream has
// at least one sample in it. Extraction and prediction fan out across
// the worker pool; the result keeps window order, so it matches the
// serial loop.
func flightObservations(model *AcousticModel, f *dataset.Flight, imuStream int) ([]WindowObs, error) {
	ex, err := NewExtractor(f.Audio, model.cfg.Signature)
	if err != nil {
		return nil, err
	}
	win := model.cfg.Signature.WindowSeconds
	starts := ex.WindowStarts(win)
	perWindow := parallel.Map(0, len(starts), func(i int) *WindowObs {
		t0 := starts[i]
		feat := windowFeatures(ex, f, t0, win)
		if feat == nil {
			return nil
		}
		tel := f.TelemetryBetween(t0, t0+win)
		accel := make([]mathx.Vec3, 0, len(tel))
		gpsVel := make([]mathx.Vec3, len(tel))
		for j, s := range tel {
			gpsVel[j] = s.GPSVel
			if imuStream == 0 {
				accel = append(accel, s.IMUAccel)
			} else if imuStream-1 < len(s.AuxIMUAccel) {
				accel = append(accel, s.AuxIMUAccel[imuStream-1])
			}
		}
		if len(accel) == 0 {
			return nil
		}
		o := ObserveWindow(t0, win, model.Predict(feat), tel[len(tel)/2].EstAtt, accel, gpsVel)
		return &o
	})
	var out []WindowObs
	for _, o := range perWindow {
		if o != nil {
			out = append(out, *o)
		}
	}
	return out, nil
}
