package sysid

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// simulateLTI rolls out a known LTI system with noise.
func simulateLTI(a, b [][]float64, steps int, noise float64, seed int64) (states, controls [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := len(a)
	m := len(b[0])
	x := make([]float64, n)
	for k := 0; k < steps; k++ {
		u := make([]float64, m)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		controls = append(controls, u)
		states = append(states, append([]float64(nil), x...))
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i] += a[i][j] * x[j]
			}
			for j := 0; j < m; j++ {
				next[i] += b[i][j] * u[j]
			}
			next[i] += rng.NormFloat64() * noise
		}
		x = next
	}
	states = append(states, x)
	return states, controls
}

func TestFitRecoversKnownSystem(t *testing.T) {
	a := [][]float64{{0.9, 0.1}, {0, 0.8}}
	b := [][]float64{{0.5}, {1.0}}
	states, controls := simulateLTI(a, b, 500, 0.001, 1)
	model, err := Fit(states, controls, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(model.A.At(i, j)-a[i][j]) > 0.01 {
				t.Errorf("A[%d][%d] = %v, want %v", i, j, model.A.At(i, j), a[i][j])
			}
		}
		if math.Abs(model.B.At(i, 0)-b[i][0]) > 0.01 {
			t.Errorf("B[%d][0] = %v, want %v", i, model.B.At(i, 0), b[i][0])
		}
	}
}

func TestFitInsufficientData(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, nil, 0); err == nil {
		t.Error("single state accepted")
	}
	if _, err := Fit([][]float64{{1}, {2}}, nil, 0); err == nil {
		t.Error("missing controls accepted")
	}
	if _, err := Fit([][]float64{{1}, {2, 3}}, [][]float64{{0}}, 0); err == nil {
		t.Error("ragged states accepted")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	var m LTIModel
	if _, err := m.Predict([]float64{1}, []float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v, want ErrNotFitted", err)
	}
}

func TestPredictKnownValues(t *testing.T) {
	a := [][]float64{{1, 0.1}, {0, 1}}
	b := [][]float64{{0}, {0.5}}
	states, controls := simulateLTI(a, b, 300, 0, 2)
	model, err := Fit(states, controls, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict([]float64{2, 1}, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	// x0' = 2 + 0.1*1 = 2.1; x1' = 1 + 0.5*4 = 3
	if math.Abs(pred[0]-2.1) > 0.01 || math.Abs(pred[1]-3) > 0.01 {
		t.Errorf("Predict = %v, want [2.1 3]", pred)
	}
}

// calibrate sets the monitor threshold to the peak accumulator value
// over a benign trajectory, scaled by margin, and leaves it reset.
func calibrate(t *testing.T, mon *Monitor, states, controls [][]float64, margin float64) {
	t.Helper()
	mon.Threshold = 1e308 // no alarm while calibrating
	peak := 0.0
	for k := 0; k+1 < len(states); k++ {
		acc, _, err := mon.Step(states[k], controls[k], states[k+1])
		if err != nil {
			t.Fatal(err)
		}
		peak = math.Max(peak, acc)
	}
	mon.Threshold = peak * margin
	mon.Reset()
}

func TestMonitorStaysQuietOnMatchingDynamics(t *testing.T) {
	a := [][]float64{{0.95, 0}, {0, 0.9}}
	b := [][]float64{{0.3}, {0.7}}
	states, controls := simulateLTI(a, b, 600, 0.005, 3)
	model, err := Fit(states[:300], controls[:300], 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{Model: model, Output: 0, Decay: 0.05}
	calibrate(t, mon, states[:300], controls[:300], 1.3)
	for k := 300; k+1 < len(states); k++ {
		if _, _, err := mon.Step(states[k], controls[k], states[k+1]); err != nil {
			t.Fatal(err)
		}
	}
	if mon.alarmed {
		t.Error("monitor alarmed on benign continuation")
	}
}

func TestMonitorAlarmsOnDynamicsChange(t *testing.T) {
	a := [][]float64{{0.95, 0}, {0, 0.9}}
	b := [][]float64{{0.3}, {0.7}}
	states, controls := simulateLTI(a, b, 400, 0.005, 4)
	model, err := Fit(states, controls, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{Model: model, Output: 0, Decay: 0.05}
	calibrate(t, mon, states, controls, 1.3)
	// Attack: the observed next state is biased away from the model.
	aAtk := [][]float64{{0.95, 0}, {0, 0.9}}
	bAtk := [][]float64{{0.3}, {0.7}}
	atkStates, atkControls := simulateLTI(aAtk, bAtk, 200, 0.005, 5)
	for k := 0; k+1 < len(atkStates); k++ {
		next := append([]float64(nil), atkStates[k+1]...)
		next[0] += 0.5 // injected deviation on the monitored output
		if _, _, err := mon.Step(atkStates[k], atkControls[k], next); err != nil {
			t.Fatal(err)
		}
	}
	if !mon.alarmed {
		t.Error("monitor missed injected deviation")
	}
	mon.Reset()
	if mon.alarmed {
		t.Error("Reset did not clear alarm")
	}
}

func TestMonitorOutputRange(t *testing.T) {
	a := [][]float64{{1}}
	b := [][]float64{{1}}
	states, controls := simulateLTI(a, b, 50, 0, 6)
	model, err := Fit(states, controls, 0)
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{Model: model, Output: 5, Threshold: 1}
	if _, _, err := mon.Step(states[0], controls[0], states[1]); err == nil {
		t.Error("out-of-range output accepted")
	}
}
