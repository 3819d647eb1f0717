package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuatIdentityRotation(t *testing.T) {
	q := IdentityQuat()
	v := Vec3{1, 2, 3}
	if got := q.Rotate(v); !vecApproxEq(got, v, eps) {
		t.Errorf("identity rotation = %v, want %v", got, v)
	}
}

func TestQuatAxisAngle(t *testing.T) {
	tests := []struct {
		name  string
		axis  Vec3
		angle float64
		in    Vec3
		want  Vec3
	}{
		{"z90", Vec3{0, 0, 1}, math.Pi / 2, Vec3{1, 0, 0}, Vec3{0, 1, 0}},
		{"z180", Vec3{0, 0, 1}, math.Pi, Vec3{1, 0, 0}, Vec3{-1, 0, 0}},
		{"x90", Vec3{1, 0, 0}, math.Pi / 2, Vec3{0, 1, 0}, Vec3{0, 0, 1}},
		{"y90", Vec3{0, 1, 0}, math.Pi / 2, Vec3{0, 0, 1}, Vec3{1, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := QuatFromAxisAngle(tt.axis, tt.angle)
			if got := q.Rotate(tt.in); !vecApproxEq(got, tt.want, 1e-9) {
				t.Errorf("rotate %v = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestQuatEulerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		roll := (rng.Float64() - 0.5) * 2 // within ±1 rad, away from gimbal lock
		pitch := (rng.Float64() - 0.5) * 2
		yaw := (rng.Float64() - 0.5) * 6
		q := QuatFromEuler(roll, pitch, yaw)
		r, p, y := q.Euler()
		if !approxEq(r, roll, 1e-9) || !approxEq(p, pitch, 1e-9) || !approxEq(angleWrap(y-yaw), 0, 1e-9) {
			t.Fatalf("round trip (%v,%v,%v) -> (%v,%v,%v)", roll, pitch, yaw, r, p, y)
		}
	}
}

func angleWrap(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

func TestQuatRotateInv(t *testing.T) {
	q := QuatFromEuler(0.3, -0.2, 1.1)
	v := Vec3{1, -2, 3}
	got := q.RotateInv(q.Rotate(v))
	if !vecApproxEq(got, v, 1e-9) {
		t.Errorf("RotateInv(Rotate(v)) = %v, want %v", got, v)
	}
}

// Property: rotation preserves vector length.
func TestQuatRotationPreservesNorm(t *testing.T) {
	f := func(roll, pitch, yaw, vx, vy, vz float64) bool {
		q := QuatFromEuler(math.Mod(clampForQuick(roll), math.Pi),
			math.Mod(clampForQuick(pitch), math.Pi/2),
			math.Mod(clampForQuick(yaw), math.Pi))
		v := Vec3{clampForQuick(vx), clampForQuick(vy), clampForQuick(vz)}
		got := q.Rotate(v)
		return approxEq(got.Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quaternion multiplication of unit quaternions stays unit norm.
func TestQuatMulUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		q1 := QuatFromEuler(rng.NormFloat64(), rng.NormFloat64()/2, rng.NormFloat64())
		q2 := QuatFromEuler(rng.NormFloat64(), rng.NormFloat64()/2, rng.NormFloat64())
		if n := q1.Mul(q2).Norm(); !approxEq(n, 1, 1e-9) {
			t.Fatalf("unit*unit norm = %v", n)
		}
	}
}

func TestQuatIntegrate(t *testing.T) {
	// Integrating a constant yaw rate of pi/2 rad/s for 1 s in small steps
	// should rotate the attitude by ~90 degrees about z.
	q := IdentityQuat()
	omega := Vec3{0, 0, math.Pi / 2}
	const steps = 1000
	for i := 0; i < steps; i++ {
		q = q.Integrate(omega, 1.0/steps)
	}
	_, _, yaw := q.Euler()
	if !approxEq(yaw, math.Pi/2, 1e-6) {
		t.Errorf("yaw after integration = %v, want %v", yaw, math.Pi/2)
	}
	if !approxEq(q.Norm(), 1, 1e-9) {
		t.Errorf("attitude norm drifted to %v", q.Norm())
	}
}

func TestQuatIntegrateZeroRate(t *testing.T) {
	q := QuatFromEuler(0.1, 0.2, 0.3)
	got := q.Integrate(Vec3{}, 0.01)
	if !approxEq(got.Norm(), 1, eps) {
		t.Errorf("norm = %v, want 1", got.Norm())
	}
	r1, p1, y1 := q.Euler()
	r2, p2, y2 := got.Euler()
	if !approxEq(r1, r2, eps) || !approxEq(p1, p2, eps) || !approxEq(y1, y2, eps) {
		t.Error("zero-rate integration changed attitude")
	}
}

func TestQuatNormalizedZero(t *testing.T) {
	q := Quat{}
	if got := q.Normalized(); got != IdentityQuat() {
		t.Errorf("Normalized zero quat = %v, want identity", got)
	}
}
