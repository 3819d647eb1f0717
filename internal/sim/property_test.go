package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soundboost/internal/mathx"
)

// Property: the motor mixer inverts the dynamics' torque model — commanding
// (thrust, torque) through mix and evaluating the quad-X geometry on the
// resulting per-motor thrusts recovers the request (when no motor clamps).
func TestMixerInvertsTorqueModelProperty(t *testing.T) {
	vcfg := DefaultVehicleConfig()
	ctrl := NewController(vcfg, DefaultControllerConfig())
	hoverThrust := vcfg.Mass * gravity

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		thrust := hoverThrust * (0.7 + 0.6*rng.Float64())
		torque := mathx.Vec3{
			X: rng.NormFloat64() * 0.2,
			Y: rng.NormFloat64() * 0.2,
			Z: rng.NormFloat64() * 0.05,
		}
		cmd := ctrl.mix(thrust, torque)
		// Reject the sample if any motor clamped (inversion only holds in
		// the linear region).
		for _, w := range cmd {
			if w <= vcfg.MinMotorSpeed+1e-9 || w >= vcfg.MaxMotorSpeed-1e-9 {
				return true
			}
		}
		var gotThrust float64
		var gotTorque mathx.Vec3
		for i, w := range cmd {
			fi := vcfg.ThrustCoeff * w * w
			gotThrust += fi
			p := vcfg.MotorPosition(i)
			gotTorque.X += -p.Y * fi
			gotTorque.Y += p.X * fi
			gotTorque.Z += MotorSpinDir(i) * vcfg.TorqueCoeff * w * w
		}
		return math.Abs(gotThrust-thrust) < 1e-6*thrust &&
			gotTorque.Sub(torque).Norm() < 1e-6+1e-6*torque.Norm()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with motors off and no drag, the dynamics conserve horizontal
// momentum (gravity acts only on z).
func TestDynamicsMomentumConservationProperty(t *testing.T) {
	cfg := DefaultVehicleConfig()
	cfg.MinMotorSpeed = 0
	cfg.LinearDrag = 0
	cfg.AngularDrag = 0
	dyn, err := NewDynamics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vx, vy, vz float64) bool {
		v0 := mathx.Vec3{
			X: math.Mod(clampQ(vx), 20),
			Y: math.Mod(clampQ(vy), 20),
			Z: math.Mod(clampQ(vz), 20),
		}
		s := State{Att: mathx.IdentityQuat(), Vel: v0}
		for i := 0; i < 100; i++ {
			s = dyn.Step(s, [NumMotors]float64{}, mathx.Vec3{}, 0.002)
		}
		return math.Abs(s.Vel.X-v0.X) < 1e-9 && math.Abs(s.Vel.Y-v0.Y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func clampQ(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
