package kalman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soundboost/internal/mathx"
)

// Property: under arbitrary (seeded) predict/update sequences, the filter
// covariance stays symmetric with non-negative diagonal, and the state
// stays finite.
func TestFilterCovariancePSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		filt, err := NewFilter(x0, mathx.Identity(n))
		if err != nil {
			return false
		}
		F := mathx.Identity(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					F.Set(i, j, rng.NormFloat64()*0.1)
				}
			}
		}
		Q := scaledIdentity(n, 0.01+rng.Float64()*0.1)
		H := mathx.Identity(n)
		R := scaledIdentity(n, 0.1+rng.Float64())
		for step := 0; step < 50; step++ {
			if err := filt.Predict(F, nil, nil, Q); err != nil {
				return false
			}
			z := make([]float64, n)
			for i := range z {
				z[i] = rng.NormFloat64() * 3
			}
			if err := filt.Update(H, z, R); err != nil {
				return false
			}
			for i := 0; i < n; i++ {
				if filt.P.At(i, i) < -1e-9 {
					return false
				}
				if math.IsNaN(filt.X[i]) || math.IsInf(filt.X[i], 0) {
					return false
				}
				for j := i + 1; j < n; j++ {
					if math.Abs(filt.P.At(i, j)-filt.P.At(j, i)) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the velocity estimator is translation-equivariant — shifting
// both acceleration streams by a constant shifts the velocity trajectory
// by the integral of that constant.
func TestVelocityEstimatorLinearityProperty(t *testing.T) {
	f := func(seed int64, shiftRaw float64) bool {
		shift := math.Mod(shiftRaw, 3)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			shift = 0.5
		}
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultVelocityConfig(ModeAudioOnly)
		base, err := NewVelocityEstimator(cfg, mathx.Vec3{})
		if err != nil {
			return false
		}
		shifted, err := NewVelocityEstimator(cfg, mathx.Vec3{})
		if err != nil {
			return false
		}
		const dt = 0.05
		const steps = 100
		accels := make([]mathx.Vec3, steps)
		for i := range accels {
			accels[i] = mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		for i := 0; i < steps; i++ {
			a := accels[i]
			aS := a.Add(mathx.Vec3{X: shift})
			if err := base.Step(a, a, dt); err != nil {
				return false
			}
			if err := shifted.Step(aS, aS, dt); err != nil {
				return false
			}
		}
		wantShift := shift * dt * steps
		got := shifted.Velocity().Sub(base.Velocity())
		return math.Abs(got.X-wantShift) < 0.15*math.Abs(wantShift)+0.05 &&
			math.Abs(got.Y) < 0.05 && math.Abs(got.Z) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// scaledIdentity returns s·I of size n.
func scaledIdentity(n int, s float64) *mathx.Matrix {
	m := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, s)
	}
	return m
}
