package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecApproxEq(a, b Vec3, tol float64) bool {
	return approxEq(a.X, b.X, tol) && approxEq(a.Y, b.Y, tol) && approxEq(a.Z, b.Z, tol)
}

func TestVec3Arithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Vec3
		want Vec3
	}{
		{"add", Vec3{1, 2, 3}.Add(Vec3{4, 5, 6}), Vec3{5, 7, 9}},
		{"sub", Vec3{1, 2, 3}.Sub(Vec3{4, 5, 6}), Vec3{-3, -3, -3}},
		{"scale", Vec3{1, 2, 3}.Scale(2), Vec3{2, 4, 6}},
		{"neg", Vec3{1, -2, 3}.Neg(), Vec3{-1, 2, -3}},
		{"hadamard", Vec3{1, 2, 3}.Hadamard(Vec3{4, 5, 6}), Vec3{4, 10, 18}},
		{"cross-xy", Vec3{1, 0, 0}.Cross(Vec3{0, 1, 0}), Vec3{0, 0, 1}},
		{"cross-yz", Vec3{0, 1, 0}.Cross(Vec3{0, 0, 1}), Vec3{1, 0, 0}},
		{"clamp", Vec3{-5, 0.5, 5}.Clamp(-1, 1), Vec3{-1, 0.5, 1}},
		{"lerp-mid", Vec3{0, 0, 0}.Lerp(Vec3{2, 4, 6}, 0.5), Vec3{1, 2, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !vecApproxEq(tt.got, tt.want, eps) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVec3DotNorm(t *testing.T) {
	v := Vec3{3, 4, 0}
	if got := v.Norm(); !approxEq(got, 5, eps) {
		t.Errorf("Norm() = %v, want 5", got)
	}
	if got := v.NormSq(); !approxEq(got, 25, eps) {
		t.Errorf("NormSq() = %v, want 25", got)
	}
	if got := v.Dot(Vec3{1, 1, 1}); !approxEq(got, 7, eps) {
		t.Errorf("Dot() = %v, want 7", got)
	}
	if got := v.Dist(Vec3{0, 0, 0}); !approxEq(got, 5, eps) {
		t.Errorf("Dist() = %v, want 5", got)
	}
}

func TestVec3Normalized(t *testing.T) {
	v := Vec3{10, 0, 0}.Normalized()
	if !vecApproxEq(v, Vec3{1, 0, 0}, eps) {
		t.Errorf("Normalized() = %v, want (1,0,0)", v)
	}
	zero := Vec3{}.Normalized()
	if !vecApproxEq(zero, Vec3{}, eps) {
		t.Errorf("Normalized zero = %v, want zero", zero)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !(Vec3{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestVec3SliceRoundTrip(t *testing.T) {
	v := Vec3{1.5, -2.5, 3.25}
	got := Vec3FromSlice(v.Slice())
	if got != v {
		t.Errorf("round trip = %v, want %v", got, v)
	}
}

// Property: cross product is orthogonal to both operands.
func TestVec3CrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampForQuick(ax), clampForQuick(ay), clampForQuick(az)}
		b := Vec3{clampForQuick(bx), clampForQuick(by), clampForQuick(bz)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/scale < 1e-6 && math.Abs(c.Dot(b))/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a+b| <= |a| + |b| (triangle inequality).
func TestVec3TriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampForQuick(ax), clampForQuick(ay), clampForQuick(az)}
		b := Vec3{clampForQuick(bx), clampForQuick(by), clampForQuick(bz)}
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampForQuick maps arbitrary quick-generated floats into a sane finite
// range so properties are not dominated by overflow.
func clampForQuick(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestClampScalar(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 1, 1},
		{-5, 0, 1, 0},
		{0.5, 0, 1, 0.5},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}
