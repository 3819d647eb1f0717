package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func matApproxEq(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > tol {
				t.Fatalf("at (%d,%d): got %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

func TestMatrixMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	matApproxEq(t, got, want, eps)
}

func TestMatrixMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("err = %v, want ErrDimensionMismatch", err)
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got, err := a.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 6 {
		t.Errorf("MulVec = %v, want [7 6]", got)
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{4, 3}, {2, 1}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	matApproxEq(t, sum, fromRows([][]float64{{5, 5}, {5, 5}}), eps)
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	matApproxEq(t, diff, fromRows([][]float64{{-3, -1}, {1, 3}}), eps)
}

func TestMatrixInverseIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			m.Set(i, i, m.At(i, i)+float64(n)) // diagonally dominant: invertible
		}
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod, err := m.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		matApproxEq(t, prod, Identity(n), 1e-8)
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestMatrixInverseNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Inverse(); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("err = %v, want ErrDimensionMismatch", err)
	}
}

func TestMatrixSolve(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 => x = 1, y = 3
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := a.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 1, 1e-9) || !approxEq(x[1], 3, 1e-9) {
		t.Errorf("Solve = %v, want [1 3]", x)
	}
}

func TestMatrixSolveNeedsPivot(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := a.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 3, 1e-9) || !approxEq(x[1], 2, 1e-9) {
		t.Errorf("Solve = %v, want [3 2]", x)
	}
}

func TestMatrixSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {2, 2}})
	if _, err := a.Solve([]float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLeastSquaresRecoversLine(t *testing.T) {
	// Fit y = 2x + 1 from noisy samples; with many points the estimate
	// should be close to the true coefficients.
	rng := rand.New(rand.NewSource(5))
	n := 500
	design := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		design.Set(i, 0, x)
		design.Set(i, 1, 1)
		b[i] = 2*x + 1 + rng.NormFloat64()*0.01
	}
	coef, err := LeastSquares(design, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(coef[0], 2, 1e-2) || !approxEq(coef[1], 1, 1e-2) {
		t.Errorf("coef = %v, want [2 1]", coef)
	}
}

func TestLeastSquaresDamped(t *testing.T) {
	// Perfectly collinear columns: plain least squares is singular, but
	// Tikhonov damping produces a finite solution.
	design := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(design, []float64{2, 4, 6}, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("undamped err = %v, want ErrSingular", err)
	}
	coef, err := LeastSquares(design, []float64{2, 4, 6}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := coef[0] + coef[1]; !approxEq(got, 2, 1e-3) {
		t.Errorf("coef sum = %v, want 2", got)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.Transpose()
	want := fromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	matApproxEq(t, got, want, eps)
}

func TestMatrixSymmetrize(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	matApproxEq(t, a, fromRows([][]float64{{1, 3}, {3, 3}}), eps)
}

func TestMatrixRowColClone(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	clone := a.Clone()
	clone.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone shares storage with original")
	}
}

func TestDiagAndIdentity(t *testing.T) {
	d := Diag(1, 2, 3)
	for i := 0; i < 3; i++ {
		if d.At(i, i) != float64(i+1) {
			t.Errorf("Diag(%d,%d) = %v", i, i, d.At(i, i))
		}
	}
	id := Identity(4)
	v, err := id.MulVec([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x != float64(i+1) {
			t.Errorf("identity mul changed vector: %v", v)
		}
	}
}
