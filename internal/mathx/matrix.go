package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64. It is the workhorse for the
// Kalman filters (covariance propagation) and the LTI system-identification
// baseline (normal-equation least squares). The zero value is an empty
// matrix; use NewMatrix, Identity or Diag to construct a usable one.
type Matrix struct {
	rows, cols int
	data       []float64
}

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("mathx: dimension mismatch")

// ErrSingular is returned when a matrix inversion or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mathx: singular matrix")

// NewMatrix returns a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: negative matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(entries ...float64) *Matrix {
	m := NewMatrix(len(entries), len(entries))
	for i, e := range entries {
		m.Set(i, i, e)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Mul returns the product m*n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.cols != n.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimensionMismatch, m.rows, m.cols, n.rows, n.cols)
	}
	out := NewMatrix(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowN := n.data[k*n.cols : (k+1)*n.cols]
			rowOut := out.data[i*out.cols : (i+1)*out.cols]
			for j, b := range rowN {
				rowOut[j] += a * b
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m*v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m+n.
func (m *Matrix) Add(n *Matrix) (*Matrix, error) {
	if m.rows != n.rows || m.cols != n.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrDimensionMismatch, m.rows, m.cols, n.rows, n.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += n.data[i]
	}
	return out, nil
}

// Sub returns m-n.
func (m *Matrix) Sub(n *Matrix) (*Matrix, error) {
	if m.rows != n.rows || m.cols != n.cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrDimensionMismatch, m.rows, m.cols, n.rows, n.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= n.data[i]
	}
	return out, nil
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination with partial pivoting. It returns ErrSingular when a pivot
// falls below 1e-12 in magnitude.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: inverse of %dx%d", ErrDimensionMismatch, m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			inv.swapRows(col, pivot)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func (m *Matrix) swapRows(i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve solves m*x = b for x using Gaussian elimination, returning
// ErrSingular for rank-deficient systems. m must be square.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: solve with %dx%d", ErrDimensionMismatch, m.rows, m.cols)
	}
	if len(b) != m.rows {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrDimensionMismatch, len(b), m.rows)
	}
	n := m.rows
	a := m.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			x[col], x[pivot] = x[pivot], x[col]
		}
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / a.At(col, col)
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// LeastSquares solves the overdetermined system A*x ≈ b in the least-squares
// sense via the normal equations (AᵀA)x = Aᵀb with Tikhonov damping lambda
// (pass 0 for plain least squares). It is used by the LTI system
// identification baseline, where mild damping stabilises near-collinear
// regressors from hover data.
func LeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("%w: design %dx%d, rhs %d", ErrDimensionMismatch, a.Rows(), a.Cols(), len(b))
	}
	at := a.Transpose()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ata.Rows(); i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return ata.Solve(atb)
}

// Symmetrize replaces m with (m + mᵀ)/2 in place; Kalman covariance updates
// use it to cancel floating-point asymmetry drift.
func (m *Matrix) Symmetrize() {
	if m.rows != m.cols {
		return
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// String implements fmt.Stringer with a compact row layout.
func (m *Matrix) String() string {
	s := "["
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
