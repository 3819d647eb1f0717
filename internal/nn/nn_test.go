package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// numericalGradCheck compares a layer's analytic input gradient and
// parameter gradients against central differences.
func numericalGradCheck(t *testing.T, layer Layer, in int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out := layer.Forward(x)
	// Loss = sum of c_j * y_j with random c, so dL/dy = c.
	c := make([]float64, len(out))
	for j := range c {
		c[j] = rng.NormFloat64()
	}
	loss := func() float64 {
		y := layer.Forward(x)
		s := 0.0
		for j, v := range y {
			s += c[j] * v
		}
		return s
	}

	// Analytic gradients.
	layer.Forward(x)
	for _, p := range layer.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	gradIn := layer.Backward(c)

	const h = 1e-5
	// Input gradient.
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp := loss()
		x[i] = orig - h
		lm := loss()
		x[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-gradIn[i]) > tol*(1+math.Abs(num)) {
			t.Errorf("input grad [%d]: analytic %v, numeric %v", i, gradIn[i], num)
		}
	}
	// Parameter gradients.
	for pi, p := range layer.Params() {
		for i := range p.Value {
			orig := p.Value[i]
			p.Value[i] = orig + h
			lp := loss()
			p.Value[i] = orig - h
			lm := loss()
			p.Value[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad[i]) > tol*(1+math.Abs(num)) {
				t.Errorf("param %d grad [%d]: analytic %v, numeric %v", pi, i, p.Grad[i], num)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numericalGradCheck(t, NewDense(5, 3, rng), 5, 1e-6)
}

func TestTanhGradients(t *testing.T) {
	numericalGradCheck(t, &Tanh{}, 4, 1e-6)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(NewDense(6, 8, rng), &Tanh{}, NewDense(8, 2, rng))
	numericalGradCheck(t, net, 6, 1e-5)
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res := &Residual{Inner: NewSequential(NewDense(4, 4, rng), &Tanh{}, NewDense(4, 4, rng))}
	numericalGradCheck(t, res, 4, 1e-5)
}

func TestODEBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := NewSequential(NewDense(3, 3, rng), &Tanh{}, NewDense(3, 3, rng))
	ode := &ODEBlock{F: f, Steps: 3, H: 0.3}
	numericalGradCheck(t, ode, 3, 1e-5)
}

// ReLU's kink makes central differences unreliable exactly at 0, so test
// it away from the kink with a fixed input.
func TestReLUGradients(t *testing.T) {
	r := &ReLU{}
	x := []float64{1.5, -2.0, 0.5, -0.1}
	r.Forward(x)
	grad := r.Backward([]float64{1, 1, 1, 1})
	want := []float64{1, 0, 1, 0}
	for i := range want {
		if grad[i] != want[i] {
			t.Errorf("ReLU grad[%d] = %v, want %v", i, grad[i], want[i])
		}
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	d := &Dense{In: 2, Out: 1, W: []float64{2, 3}, B: []float64{1},
		dW: make([]float64, 2), dB: make([]float64, 1)}
	got := d.Forward([]float64{4, 5})
	if got[0] != 2*4+3*5+1 {
		t.Errorf("Forward = %v, want 24", got[0])
	}
}

func TestTrainLearnsLinearMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// y = [x0 + 2*x1, x0 - x1]
	n := 400
	xs := make([][]float64, n)
	ys := make([][]float64, n)
	for i := range xs {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		xs[i] = []float64{x0, x1}
		ys[i] = []float64{x0 + 2*x1, x0 - x1}
	}
	model, err := NewRegressor(ModelMLP, 2, 16, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(model, xs, ys, TrainConfig{Epochs: 120, BatchSize: 32, LR: 5e-3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := MSE(model, xs, ys); got > 0.01 {
		t.Errorf("final MSE = %v, want < 0.01", got)
	}
}

func TestTrainNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 600
	xs := make([][]float64, n)
	ys := make([][]float64, n)
	for i := range xs {
		x := rng.Float64()*4 - 2
		xs[i] = []float64{x}
		ys[i] = []float64{math.Sin(x)}
	}
	for _, kind := range []ModelKind{ModelMLP, ModelResMLP, ModelODE} {
		t.Run(string(kind), func(t *testing.T) {
			model, err := NewRegressor(kind, 1, 16, 1, rng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Train(model, xs, ys, TrainConfig{Epochs: 150, BatchSize: 32, LR: 5e-3, Seed: 2}); err != nil {
				t.Fatal(err)
			}
			if got := MSE(model, xs, ys); got > 0.02 {
				t.Errorf("%s: sin fit MSE = %v, want < 0.02", kind, got)
			}
		})
	}
}

func TestTrainValidationHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := [][]float64{{2}, {4}, {6}, {8}}
	model, err := NewRegressor(ModelMLP, 1, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(model, xs, ys, TrainConfig{Epochs: 5, ValX: xs, ValY: ys, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainMSE) != 5 || len(hist.ValMSE) != 5 {
		t.Errorf("history lengths = %d/%d, want 5/5", len(hist.TrainMSE), len(hist.ValMSE))
	}
}

func TestTrainBadData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model, err := NewRegressor(ModelMLP, 1, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(model, nil, nil, TrainConfig{}); !errors.Is(err, ErrBadDataset) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Train(model, [][]float64{{1}}, [][]float64{}, TrainConfig{}); !errors.Is(err, ErrBadDataset) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := Train(model, [][]float64{{1}, {1, 2}}, [][]float64{{1}, {2}}, TrainConfig{}); !errors.Is(err, ErrBadDataset) {
		t.Errorf("ragged err = %v", err)
	}
}

func TestNewRegressorUnknownKind(t *testing.T) {
	if _, err := NewRegressor("bogus", 1, 4, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := NewRegressor(ModelMLP, 0, 4, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero input accepted")
	}
}

func TestSGDDecreasesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDense(2, 1, rng)
	opt := &SGD{LR: 0.05, Momentum: 0.9}
	x := []float64{1, -1}
	target := 3.0
	var first, last float64
	for i := 0; i < 200; i++ {
		y := d.Forward(x)
		diff := y[0] - target
		if i == 0 {
			first = diff * diff
		}
		last = diff * diff
		d.Backward([]float64{2 * diff})
		opt.Step(d.Params())
	}
	if last > first/100 {
		t.Errorf("SGD loss %v -> %v: insufficient decrease", first, last)
	}
}

func TestAdamZeroesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDense(2, 2, rng)
	d.Forward([]float64{1, 2})
	d.Backward([]float64{1, 1})
	opt := &Adam{LR: 1e-3}
	opt.Step(d.Params())
	for _, p := range d.Params() {
		for i, g := range p.Grad {
			if g != 0 {
				t.Fatalf("grad[%d] = %v after step, want 0", i, g)
			}
		}
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLSTM(2, 3, 2, rng)
	seq := [][]float64{{0.5, -0.2}, {0.1, 0.8}, {-0.4, 0.3}}
	out := l.Forward(seq)
	c := make([]float64, len(out))
	for j := range c {
		c[j] = rng.NormFloat64()
	}
	loss := func() float64 {
		y := l.Forward(seq)
		s := 0.0
		for j, v := range y {
			s += c[j] * v
		}
		return s
	}
	l.Forward(seq)
	for _, p := range l.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	l.Backward(c)
	const h = 1e-5
	for pi, p := range l.Params() {
		for i := range p.Value {
			orig := p.Value[i]
			p.Value[i] = orig + h
			lp := loss()
			p.Value[i] = orig - h
			lm := loss()
			p.Value[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("lstm param %d grad[%d]: analytic %v, numeric %v", pi, i, p.Grad[i], num)
			}
		}
	}
}

func TestLSTMLearnsSequenceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 300
	seqs := make([][][]float64, n)
	targets := make([][]float64, n)
	for i := range seqs {
		T := 4
		seq := make([][]float64, T)
		sum := 0.0
		for t := 0; t < T; t++ {
			v := rng.Float64()*2 - 1
			seq[t] = []float64{v}
			sum += v
		}
		seqs[i] = seq
		targets[i] = []float64{sum / 4}
	}
	l := NewLSTM(1, 8, 1, rng)
	if _, err := TrainLSTM(l, seqs, targets, TrainConfig{Epochs: 60, BatchSize: 16, LR: 1e-2, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	var sse float64
	for i, s := range seqs {
		d := l.Forward(s)[0] - targets[i][0]
		sse += d * d
	}
	if got := sse / float64(n); got > 0.01 {
		t.Errorf("sequence-mean MSE = %v, want < 0.01", got)
	}
}

func TestTrainLSTMBadData(t *testing.T) {
	l := NewLSTM(1, 2, 1, rand.New(rand.NewSource(13)))
	if _, err := TrainLSTM(l, nil, nil, TrainConfig{}); !errors.Is(err, ErrBadDataset) {
		t.Errorf("err = %v, want ErrBadDataset", err)
	}
}

func TestSaveLoadRegressorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, kind := range []ModelKind{ModelMLP, ModelResMLP, ModelODE} {
		t.Run(string(kind), func(t *testing.T) {
			model, err := NewRegressor(kind, 3, 8, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			x := []float64{0.3, -0.7, 1.2}
			want := model.Forward(x)
			var buf bytes.Buffer
			if err := SaveRegressor(&buf, model, kind, 3, 8, 2); err != nil {
				t.Fatal(err)
			}
			loaded, loadedKind, err := LoadRegressor(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loadedKind != kind {
				t.Errorf("loaded kind = %v, want %v", loadedKind, kind)
			}
			got := loaded.Forward(x)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Errorf("output[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestLoadRegressorCorrupt(t *testing.T) {
	if _, _, err := LoadRegressor(bytes.NewBufferString("{not json")); err == nil {
		t.Error("corrupt input accepted")
	}
}

func TestMSEEmpty(t *testing.T) {
	model, err := NewRegressor(ModelMLP, 1, 2, 1, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	if got := MSE(model, nil, nil); got != 0 {
		t.Errorf("MSE(empty) = %v", got)
	}
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model, err := NewRegressor(ModelMLP, 80, 64, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(x)
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model, err := NewRegressor(ModelMLP, 80, 64, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	opt := &Adam{LR: 1e-3}
	params := model.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := model.Forward(x)
		grad := make([]float64, len(y))
		for j := range grad {
			grad[j] = y[j] * 0.01
		}
		model.Backward(grad)
		opt.Step(params)
	}
}
