package mathx

import "math"

// Quat is a unit quaternion (W + Xi + Yj + Zk) representing a rotation from
// the body frame to the world (NED) frame.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation.
func IdentityQuat() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds a quaternion rotating by angle (radians) around
// the given axis. The axis need not be normalized.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	a := axis.Normalized()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: a.X * s, Y: a.Y * s, Z: a.Z * s}
}

// QuatFromEuler builds a quaternion from aerospace (roll, pitch, yaw) Euler
// angles in radians, using the Z-Y-X (yaw-pitch-roll) intrinsic convention
// standard in flight dynamics.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
	return Quat{
		W: cr*cp*cy + sr*sp*sy,
		X: sr*cp*cy - cr*sp*sy,
		Y: cr*sp*cy + sr*cp*sy,
		Z: cr*cp*sy - sr*sp*cy,
	}
}

// Euler returns the (roll, pitch, yaw) Euler angles of q in radians.
func (q Quat) Euler() (roll, pitch, yaw float64) {
	// roll (x-axis rotation)
	sinr := 2 * (q.W*q.X + q.Y*q.Z)
	cosr := 1 - 2*(q.X*q.X+q.Y*q.Y)
	roll = math.Atan2(sinr, cosr)

	// pitch (y-axis rotation); clamp for numerical safety at the gimbal poles.
	sinp := 2 * (q.W*q.Y - q.Z*q.X)
	if math.Abs(sinp) >= 1 {
		pitch = math.Copysign(math.Pi/2, sinp)
	} else {
		pitch = math.Asin(sinp)
	}

	// yaw (z-axis rotation)
	siny := 2 * (q.W*q.Z + q.X*q.Y)
	cosy := 1 - 2*(q.Y*q.Y+q.Z*q.Z)
	yaw = math.Atan2(siny, cosy)
	return roll, pitch, yaw
}

// Mul returns the Hamilton product q*r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion norm.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit norm. The zero quaternion becomes the
// identity, which keeps integrators well defined under degenerate input.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}

// Rotate applies the rotation q to vector v (body → world for an attitude
// quaternion).
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q^-1, expanded for speed.
	t := Vec3{X: q.X, Y: q.Y, Z: q.Z}.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(Vec3{X: q.X, Y: q.Y, Z: q.Z}.Cross(t))
}

// RotateInv applies the inverse rotation (world → body).
func (q Quat) RotateInv(v Vec3) Vec3 { return q.Conj().Rotate(v) }

// Integrate advances the attitude by the body angular velocity omega
// (rad/s) over dt seconds using the exponential map, returning a unit
// quaternion. This is the attitude integrator used by the flight simulator.
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	angle := omega.Norm() * dt
	if angle < 1e-12 {
		return q.Normalized()
	}
	dq := QuatFromAxisAngle(omega, angle)
	return q.Mul(dq).Normalized()
}
