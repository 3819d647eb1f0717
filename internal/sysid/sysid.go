// Package sysid implements the Control Invariant baseline (Choi et al.,
// CCS'18) that the paper compares against in Tab. II: System Identification
// fits a discrete linear time-invariant model x_{k+1} = A x_k + B u_k to
// benign flight data; the fitted model then serves as an invariant monitor
// whose cumulative prediction error flags attacks.
package sysid

import (
	"errors"
	"fmt"

	"soundboost/internal/mathx"
)

// ErrNotFitted is returned when a model is used before Fit.
var ErrNotFitted = errors.New("sysid: model not fitted")

// LTIModel is a fitted discrete-time linear model x_{k+1} = A x_k + B u_k.
type LTIModel struct {
	// A is the state transition matrix (n x n).
	A *mathx.Matrix
	// B is the control matrix (n x m).
	B      *mathx.Matrix
	fitted bool
}

// Fit estimates A and B from trajectories by least squares. states[k] is
// x_k, controls[k] is u_k; the regression pairs x_{k+1} with [x_k; u_k].
// Damping stabilises near-collinear hover data (pass ~1e-6).
func Fit(states [][]float64, controls [][]float64, damping float64) (*LTIModel, error) {
	if len(states) < 2 {
		return nil, fmt.Errorf("sysid: need at least 2 state samples, got %d", len(states))
	}
	if len(controls) < len(states)-1 {
		return nil, fmt.Errorf("sysid: need %d control samples, got %d", len(states)-1, len(controls))
	}
	n := len(states[0])
	m := len(controls[0])
	rows := len(states) - 1
	design := mathx.NewMatrix(rows, n+m)
	for k := 0; k < rows; k++ {
		if len(states[k]) != n || len(controls[k]) != m {
			return nil, fmt.Errorf("sysid: ragged sample %d", k)
		}
		for j := 0; j < n; j++ {
			design.Set(k, j, states[k][j])
		}
		for j := 0; j < m; j++ {
			design.Set(k, n+j, controls[k][j])
		}
	}
	model := &LTIModel{A: mathx.NewMatrix(n, n), B: mathx.NewMatrix(n, m), fitted: true}
	for i := 0; i < n; i++ {
		target := make([]float64, rows)
		for k := 0; k < rows; k++ {
			target[k] = states[k+1][i]
		}
		coef, err := mathx.LeastSquares(design, target, damping)
		if err != nil {
			return nil, fmt.Errorf("sysid: solve row %d: %w", i, err)
		}
		for j := 0; j < n; j++ {
			model.A.Set(i, j, coef[j])
		}
		for j := 0; j < m; j++ {
			model.B.Set(i, j, coef[n+j])
		}
	}
	return model, nil
}

// Predict returns the model's one-step prediction from x_k and u_k.
func (m *LTIModel) Predict(x, u []float64) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	ax, err := m.A.MulVec(x)
	if err != nil {
		return nil, err
	}
	bu, err := m.B.MulVec(u)
	if err != nil {
		return nil, err
	}
	for i := range ax {
		ax[i] += bu[i]
	}
	return ax, nil
}

// Monitor accumulates per-step prediction error of an output channel and
// alarms when a CUSUM-style accumulator exceeds a threshold — the invariant
// check of the baseline.
type Monitor struct {
	// Model is the fitted invariant.
	Model *LTIModel
	// Output selects the monitored state index (e.g. yaw rate, vx, vy).
	Output int
	// Threshold is the alarm level on the error accumulator.
	Threshold float64
	// Decay leaks the accumulator per step in [0,1); 1-Decay of the
	// accumulated error survives each step.
	Decay float64

	accum   float64
	alarmed bool
}

// Step feeds one (x_k, u_k, x_{k+1}) observation; it returns the current
// accumulator value and whether the monitor is in alarm.
func (mo *Monitor) Step(x, u, xNext []float64) (float64, bool, error) {
	pred, err := mo.Model.Predict(x, u)
	if err != nil {
		return 0, false, err
	}
	if mo.Output < 0 || mo.Output >= len(pred) {
		return 0, false, fmt.Errorf("sysid: output index %d out of range %d", mo.Output, len(pred))
	}
	e := xNext[mo.Output] - pred[mo.Output]
	if e < 0 {
		e = -e
	}
	mo.accum = mo.accum*(1-mo.Decay) + e
	if mo.accum > mo.Threshold {
		mo.alarmed = true
	}
	return mo.accum, mo.alarmed, nil
}

// Reset clears the accumulator and alarm state.
func (mo *Monitor) Reset() { mo.accum = 0; mo.alarmed = false }
