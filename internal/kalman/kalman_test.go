package kalman

import (
	"math"
	"math/rand"
	"testing"

	"soundboost/internal/mathx"
)

func TestNewFilterDimensionCheck(t *testing.T) {
	if _, err := NewFilter([]float64{1, 2}, mathx.Identity(3)); err == nil {
		t.Error("mismatched covariance accepted")
	}
	if _, err := NewFilter([]float64{1, 2}, mathx.Identity(2)); err != nil {
		t.Errorf("valid init rejected: %v", err)
	}
}

// A 1-D constant-signal filter must converge to the true value with
// shrinking covariance.
func TestFilterConvergesOnConstant(t *testing.T) {
	f, err := NewFilter([]float64{0}, mathx.Diag(10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	F := mathx.Identity(1)
	Q := mathx.Diag(1e-6)
	H := mathx.Identity(1)
	R := mathx.Diag(0.25)
	const truth = 7.0
	for i := 0; i < 300; i++ {
		if err := f.Predict(F, nil, nil, Q); err != nil {
			t.Fatal(err)
		}
		z := truth + rng.NormFloat64()*0.5
		if err := f.Update(H, []float64{z}, R); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(f.X[0]-truth) > 0.2 {
		t.Errorf("estimate %v, want ~%v", f.X[0], truth)
	}
	if f.P.At(0, 0) > 0.05 {
		t.Errorf("covariance %v did not shrink", f.P.At(0, 0))
	}
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *mathx.Matrix {
	m := mathx.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// Tracking a constant-velocity target with a position-only measurement:
// the classic 2-state problem. The filter must recover the velocity.
func TestFilterRecoversVelocityFromPosition(t *testing.T) {
	dt := 0.1
	F := fromRows([][]float64{{1, dt}, {0, 1}})
	Q := fromRows([][]float64{{1e-5, 0}, {0, 1e-5}})
	H := fromRows([][]float64{{1, 0}})
	R := mathx.Diag(0.04)
	f, err := NewFilter([]float64{0, 0}, mathx.Diag(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const vel = 2.5
	for i := 0; i < 400; i++ {
		if err := f.Predict(F, nil, nil, Q); err != nil {
			t.Fatal(err)
		}
		pos := vel*float64(i)*dt + rng.NormFloat64()*0.2
		if err := f.Update(H, []float64{pos}, R); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(f.X[1]-vel) > 0.1 {
		t.Errorf("velocity estimate %v, want ~%v", f.X[1], vel)
	}
}

func TestFilterControlInput(t *testing.T) {
	// x' = x + u with noiseless dynamics: the state must integrate u.
	f, err := NewFilter([]float64{0}, mathx.Diag(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	F := mathx.Identity(1)
	B := mathx.Diag(0.5)
	Q := mathx.Diag(1e-12)
	for i := 0; i < 10; i++ {
		if err := f.Predict(F, B, []float64{2}, Q); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(f.X[0]-10) > 1e-6 {
		t.Errorf("state %v, want 10", f.X[0])
	}
}

func TestFilterCovarianceStaysSymmetric(t *testing.T) {
	f, err := NewFilter([]float64{0, 0, 0}, mathx.Diag(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	F := fromRows([][]float64{{1, 0.1, 0}, {0, 1, 0.1}, {0, 0, 1}})
	Q := mathx.Diag(0.01, 0.01, 0.01)
	H := fromRows([][]float64{{1, 0, 0}, {0, 1, 0}})
	R := mathx.Diag(0.1, 0.1)
	for i := 0; i < 100; i++ {
		if err := f.Predict(F, nil, nil, Q); err != nil {
			t.Fatal(err)
		}
		if err := f.Update(H, []float64{rng.NormFloat64(), rng.NormFloat64()}, R); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			for c := r + 1; c < 3; c++ {
				if math.Abs(f.P.At(r, c)-f.P.At(c, r)) > 1e-12 {
					t.Fatalf("covariance asymmetric at step %d", i)
				}
			}
			if f.P.At(r, r) < 0 {
				t.Fatalf("negative variance at step %d", i)
			}
		}
	}
}

func TestVelocityEstimatorModes(t *testing.T) {
	for _, mode := range []Mode{ModeAudioOnly, ModeAudioIMU, ModeIMUOnly} {
		t.Run(string(mode), func(t *testing.T) {
			e, err := NewVelocityEstimator(DefaultVelocityConfig(mode), mathx.Vec3{})
			if err != nil {
				t.Fatal(err)
			}
			if e.cfg.Mode != mode {
				t.Errorf("mode = %v", e.cfg.Mode)
			}
			// Constant 1 m/s^2 north acceleration on both streams for 2 s.
			a := mathx.Vec3{X: 1}
			for i := 0; i < 200; i++ {
				if err := e.Step(a, a, 0.01); err != nil {
					t.Fatal(err)
				}
			}
			v := e.Velocity()
			if math.Abs(v.X-2) > 0.25 {
				t.Errorf("velocity X = %v, want ~2", v.X)
			}
			if math.Abs(v.Y) > 0.1 || math.Abs(v.Z) > 0.1 {
				t.Errorf("cross-axis leakage: %v", v)
			}
		})
	}
}

func TestVelocityEstimatorUnknownMode(t *testing.T) {
	cfg := DefaultVelocityConfig("bogus")
	if _, err := NewVelocityEstimator(cfg, mathx.Vec3{}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestVelocityEstimatorRejectsBadDt(t *testing.T) {
	e, err := NewVelocityEstimator(DefaultVelocityConfig(ModeAudioIMU), mathx.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(mathx.Vec3{}, mathx.Vec3{}, 0); err == nil {
		t.Error("zero dt accepted")
	}
}

// TestVelocityEstimatorIrregularDt feeds the timestamp pathologies a
// lossy bus produces. Rejected steps must leave the estimate untouched;
// jittered-but-valid steps must integrate to the same place as a uniform
// cadence covering the same total time.
func TestVelocityEstimatorIrregularDt(t *testing.T) {
	a := mathx.Vec3{X: 1}
	nan, inf := math.NaN(), math.Inf(1)

	t.Run("rejects garbage without state damage", func(t *testing.T) {
		e, err := NewVelocityEstimator(DefaultVelocityConfig(ModeAudioIMU), mathx.Vec3{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := e.Step(a, a, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		before := e.Velocity()
		bad := []struct {
			name       string
			audio, imu mathx.Vec3
			dt         float64
		}{
			{"negative dt", a, a, -0.01},
			{"zero dt", a, a, 0},
			{"NaN dt", a, a, nan},
			{"+Inf dt", a, a, inf},
			{"NaN audio accel", mathx.Vec3{X: nan}, a, 0.01},
			{"Inf imu accel", a, mathx.Vec3{Z: inf}, 0.01},
		}
		for _, tc := range bad {
			if err := e.Step(tc.audio, tc.imu, tc.dt); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}
		after := e.Velocity()
		if after != before {
			t.Errorf("rejected steps mutated the estimate: %v -> %v", before, after)
		}
		for _, c := range []float64{after.X, after.Y, after.Z} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("non-finite estimate %v after rejected steps", after)
			}
		}
	})

	t.Run("jittered cadence integrates like uniform", func(t *testing.T) {
		uniform, err := NewVelocityEstimator(DefaultVelocityConfig(ModeAudioOnly), mathx.Vec3{})
		if err != nil {
			t.Fatal(err)
		}
		jitter, err := NewVelocityEstimator(DefaultVelocityConfig(ModeAudioOnly), mathx.Vec3{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		total := 0.0
		for total < 2 {
			dt := 0.005 + 0.01*rng.Float64()
			if err := jitter.Step(a, a, dt); err != nil {
				t.Fatal(err)
			}
			total += dt
		}
		steps := int(total / 0.01)
		for i := 0; i < steps; i++ {
			if err := uniform.Step(a, a, total/float64(steps)); err != nil {
				t.Fatal(err)
			}
		}
		du := uniform.Velocity().X
		dj := jitter.Velocity().X
		if math.Abs(du-dj) > 0.2 {
			t.Errorf("jittered estimate %v vs uniform %v over the same %v s", dj, du, total)
		}
	})
}

// The core fusion property: when the IMU stream is biased (attack) but the
// audio stream is clean, the audio-only estimator tracks truth while the
// IMU-only estimator diverges.
func TestVelocityEstimatorAudioResistsIMUBias(t *testing.T) {
	audioOnly, err := NewVelocityEstimator(DefaultVelocityConfig(ModeAudioOnly), mathx.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	imuOnly, err := NewVelocityEstimator(DefaultVelocityConfig(ModeIMUOnly), mathx.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	trueAccel := mathx.Vec3{} // hovering
	bias := mathx.Vec3{Z: 2}  // IMU biasing attack
	for i := 0; i < 500; i++ {
		noise := mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.05)
		audio := trueAccel.Add(noise)
		imu := trueAccel.Add(bias).Add(noise)
		if err := audioOnly.Step(audio, imu, 0.01); err != nil {
			t.Fatal(err)
		}
		if err := imuOnly.Step(audio, imu, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	if v := audioOnly.Velocity().Norm(); v > 0.5 {
		t.Errorf("audio-only velocity drifted to %v under IMU bias", v)
	}
	if v := imuOnly.Velocity().Norm(); v < 2 {
		t.Errorf("imu-only velocity %v did not reflect the bias", v)
	}
}

// With a benign IMU, audio+IMU fusion should estimate at least as well as
// audio alone under audio noise.
func TestVelocityEstimatorFusionImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	run := func(mode Mode) float64 {
		e, err := NewVelocityEstimator(DefaultVelocityConfig(mode), mathx.Vec3{})
		if err != nil {
			t.Fatal(err)
		}
		trueVel := mathx.Vec3{}
		var sumErr float64
		const steps = 2000
		for i := 0; i < steps; i++ {
			trueAccel := mathx.Vec3{X: math.Sin(float64(i) * 0.01)}
			trueVel = trueVel.Add(trueAccel.Scale(0.01))
			audio := trueAccel.Add(mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.3))
			imu := trueAccel.Add(mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.05))
			if err := e.Step(audio, imu, 0.01); err != nil {
				t.Fatal(err)
			}
			sumErr += e.Velocity().Sub(trueVel).Norm()
		}
		return sumErr / steps
	}
	audioErr := run(ModeAudioOnly)
	fusedErr := run(ModeAudioIMU)
	if fusedErr > audioErr {
		t.Errorf("fusion error %v worse than audio-only %v", fusedErr, audioErr)
	}
}

func TestCovarianceAccessor(t *testing.T) {
	e, err := NewVelocityEstimator(DefaultVelocityConfig(ModeAudioIMU), mathx.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	covariance := func() mathx.Vec3 {
		return mathx.Vec3{X: e.filter.P.At(0, 0), Y: e.filter.P.At(1, 1), Z: e.filter.P.At(2, 2)}
	}
	c0 := covariance()
	for i := 0; i < 50; i++ {
		if err := e.Step(mathx.Vec3{}, mathx.Vec3{}, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	c1 := covariance()
	if !(c1.X < c0.X && c1.Y < c0.Y && c1.Z < c0.Z) {
		t.Errorf("covariance did not shrink: %v -> %v", c0, c1)
	}
}
