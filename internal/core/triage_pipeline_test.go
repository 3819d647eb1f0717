package soundboost

import (
	"testing"

	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/triage"
)

// trainedTriageAnalyzer calibrates an analyzer over the fixture corpus
// with a triage tier trained on the calibration flights plus one attack
// flight per family, and verifies the zero-flip guarantee on that
// training corpus.
func trainedTriageAnalyzer(t *testing.T) (*Analyzer, []*dataset.Flight) {
	t.Helper()
	fx := getFixture(t)
	// The tier needs benign breadth beyond the three calibration flights,
	// or fresh-seed hover flights land outside the learned radius and the
	// fast path degenerates to "escalate everything".
	corpus := append([]*dataset.Flight(nil), fx.train...)
	corpus = append(corpus, fx.calib...)
	corpus = append(corpus,
		gpsAttackFlight(t, 3001),
		imuAttackFlight(t, attack.IMUSideSwing, 3002),
		imuAttackFlight(t, attack.IMUAccelDoS, 3003),
	)
	tier, err := TrainTriage(corpus, testSignatureConfig(), triage.Config{})
	if err != nil {
		t.Fatalf("TrainTriage: %v", err)
	}
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	an.Triage = tier
	if _, _, err := an.VerifyTriage(corpus); err != nil {
		t.Fatalf("VerifyTriage: %v", err)
	}
	return an, corpus
}

// fastpathed reports whether the analyzer short-circuited the flight:
// the fast benign report is bitwise-distinguishable from any full-path
// report (the full path always populates the IMU window counts).
func fastpathed(t *testing.T, an *Analyzer, f *dataset.Flight) bool {
	t.Helper()
	rep, err := an.Analyze(f)
	if err != nil {
		t.Fatalf("Analyze %s: %v", f.Name, err)
	}
	return rep == FastBenignReport(f.Name, an)
}

// TestTriageZeroFlipOnCorpus is the batch-path zero verdict-flip
// guarantee: over the whole training corpus, the triage-on analyzer
// must attribute exactly the cause the triage-off analyzer does.
func TestTriageZeroFlipOnCorpus(t *testing.T) {
	an, corpus := trainedTriageAnalyzer(t)
	full := an.WithoutTriage()
	if full.Triage != nil || an.Triage == nil {
		t.Fatal("WithoutTriage did not detach the tier (or mutated the receiver)")
	}
	for _, f := range corpus {
		with, err := an.Analyze(f)
		if err != nil {
			t.Fatalf("triage-on Analyze %s: %v", f.Name, err)
		}
		without, err := full.Analyze(f)
		if err != nil {
			t.Fatalf("triage-off Analyze %s: %v", f.Name, err)
		}
		if with.Cause != without.Cause {
			t.Errorf("%s: verdict flipped: triage-on %q vs triage-off %q", f.Name, with.Cause, without.Cause)
		}
	}
}

// TestTriageEscalationAccuracyDisjoint is the leakage-honesty check:
// escalation accuracy is scored on flights generated from seeds the
// tier never trained on. Every held-out attack must escalate into the
// full pipeline (the conservative direction the zero-flip guarantee
// depends on), and the benign fast-path must not be degenerate.
func TestTriageEscalationAccuracyDisjoint(t *testing.T) {
	an, _ := trainedTriageAnalyzer(t)
	fx := getFixture(t)

	attacks := []struct {
		name   string
		flight *dataset.Flight
	}{
		{"gps-drift", gpsAttackFlight(t, 4001)},
		{"imu-side-swing", imuAttackFlight(t, attack.IMUSideSwing, 4002)},
		{"imu-accel-dos", imuAttackFlight(t, attack.IMUAccelDoS, 4003)},
	}
	for _, tc := range attacks {
		t.Run(tc.name, func(t *testing.T) {
			if fastpathed(t, an, tc.flight) {
				t.Errorf("held-out %s attack took the fast path", tc.name)
			}
		})
	}

	fast := 0
	for _, f := range fx.heldout {
		if fastpathed(t, an, f) {
			fast++
		}
	}
	t.Logf("held-out benign fast-path: %d/%d", fast, len(fx.heldout))
	if fast == 0 {
		t.Error("no held-out benign flight took the fast path — the tier screens nothing")
	}
}
