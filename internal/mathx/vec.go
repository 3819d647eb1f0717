// Package mathx provides the small linear-algebra toolkit used across the
// SoundBoost reproduction: 3-vectors, quaternions, and dense NxN matrix
// routines (inversion, least squares) required by the Kalman filters and
// the LTI system-identification baseline.
//
// Everything is stdlib-only and allocation-conscious: the hot paths used by
// the flight simulator (Vec3, Quat) are value types.
package mathx

import (
	"fmt"
	"math"
)

// Vec3 is a 3-dimensional vector. The coordinate convention throughout the
// repository is North-East-Down (NED), matching the paper's Kalman filter
// formulation ("North-East-Down transformed acceleration").
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Hadamard returns the element-wise product of v and w.
func (v Vec3) Hadamard(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Clamp returns v with each component clamped to [lo, hi].
func (v Vec3) Clamp(lo, hi float64) Vec3 {
	return Vec3{clamp(v.X, lo, hi), clamp(v.Y, lo, hi), clamp(v.Z, lo, hi)}
}

// IsFinite reports whether every component is finite (not NaN or Inf).
func (v Vec3) IsFinite() bool {
	return isFinite(v.X) && isFinite(v.Y) && isFinite(v.Z)
}

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Lerp returns the linear interpolation between v and w at parameter t,
// where t=0 yields v and t=1 yields w.
func (v Vec3) Lerp(w Vec3, t float64) Vec3 { return v.Add(w.Sub(v).Scale(t)) }

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }

// Slice returns the components as a fresh []float64{X, Y, Z}.
func (v Vec3) Slice() []float64 { return []float64{v.X, v.Y, v.Z} }

// Vec3FromSlice builds a Vec3 from the first three elements of s.
// It panics if len(s) < 3; callers own length validation at boundaries.
func Vec3FromSlice(s []float64) Vec3 {
	return Vec3{X: s[0], Y: s[1], Z: s[2]}
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Clamp returns x clamped to [lo, hi].
func Clamp(x, lo, hi float64) float64 { return clamp(x, lo, hi) }
