package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is a single-layer LSTM sequence regressor with a dense head:
// it consumes a sequence of input vectors and predicts a target vector
// from the final hidden state. It implements the DNN baseline of the paper
// (Ding et al. [15]): learning the UAV's normal control dynamics as a time
// series and flagging prediction-error anomalies.
type LSTM struct {
	In, Hidden, Out int

	// Gate weights, each Hidden x (In + Hidden + 1) row-major, the +1
	// column being the bias: order [input | recurrent | bias].
	Wi, Wf, Wo, Wg []float64
	// Head is the output projection.
	Head *Dense

	dWi, dWf, dWo, dWg []float64

	// caches for BPTT
	seq            [][]float64
	hs, cs         [][]float64
	is, fs, os, gs [][]float64
}

// NewLSTM builds an LSTM regressor. The forget-gate bias starts at 1,
// the standard trick for gradient flow on short sequences.
func NewLSTM(in, hidden, out int, rng *rand.Rand) *LSTM {
	if in <= 0 || hidden <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid lstm shape in=%d hidden=%d out=%d", in, hidden, out))
	}
	cols := in + hidden + 1
	mk := func() []float64 {
		w := make([]float64, hidden*cols)
		limit := math.Sqrt(6.0 / float64(cols))
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		return w
	}
	l := &LSTM{
		In: in, Hidden: hidden, Out: out,
		Wi: mk(), Wf: mk(), Wo: mk(), Wg: mk(),
		Head: NewDense(hidden, out, rng),
	}
	for h := 0; h < hidden; h++ {
		l.Wf[h*cols+cols-1] = 1 // forget bias
	}
	l.dWi = make([]float64, len(l.Wi))
	l.dWf = make([]float64, len(l.Wf))
	l.dWo = make([]float64, len(l.Wo))
	l.dWg = make([]float64, len(l.Wg))
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// gate computes W [x; h; 1] for one gate weight matrix.
func (l *LSTM) gate(w, x, h []float64) []float64 {
	cols := l.In + l.Hidden + 1
	out := make([]float64, l.Hidden)
	for r := 0; r < l.Hidden; r++ {
		row := w[r*cols : (r+1)*cols]
		s := row[cols-1]
		for i, xi := range x {
			s += row[i] * xi
		}
		for j, hj := range h {
			s += row[l.In+j] * hj
		}
		out[r] = s
	}
	return out
}

// Forward runs the sequence and returns the prediction, caching
// intermediates for Backward.
func (l *LSTM) Forward(seq [][]float64) []float64 {
	l.seq = seq
	T := len(seq)
	l.hs = make([][]float64, T+1)
	l.cs = make([][]float64, T+1)
	l.is = make([][]float64, T)
	l.fs = make([][]float64, T)
	l.os = make([][]float64, T)
	l.gs = make([][]float64, T)
	l.hs[0] = make([]float64, l.Hidden)
	l.cs[0] = make([]float64, l.Hidden)
	for t := 0; t < T; t++ {
		x := seq[t]
		h, c := l.hs[t], l.cs[t]
		iRaw := l.gate(l.Wi, x, h)
		fRaw := l.gate(l.Wf, x, h)
		oRaw := l.gate(l.Wo, x, h)
		gRaw := l.gate(l.Wg, x, h)
		nh := make([]float64, l.Hidden)
		nc := make([]float64, l.Hidden)
		for k := 0; k < l.Hidden; k++ {
			iRaw[k] = sigmoid(iRaw[k])
			fRaw[k] = sigmoid(fRaw[k])
			oRaw[k] = sigmoid(oRaw[k])
			gRaw[k] = math.Tanh(gRaw[k])
			nc[k] = fRaw[k]*c[k] + iRaw[k]*gRaw[k]
			nh[k] = oRaw[k] * math.Tanh(nc[k])
		}
		l.is[t], l.fs[t], l.os[t], l.gs[t] = iRaw, fRaw, oRaw, gRaw
		l.hs[t+1], l.cs[t+1] = nh, nc
	}
	return l.Head.Forward(l.hs[T])
}

// Infer runs the sequence and returns the prediction without touching the
// BPTT caches, so it is safe for concurrent use on a trained model. The
// arithmetic is identical to Forward.
func (l *LSTM) Infer(seq [][]float64) []float64 {
	h := make([]float64, l.Hidden)
	c := make([]float64, l.Hidden)
	for _, x := range seq {
		iRaw := l.gate(l.Wi, x, h)
		fRaw := l.gate(l.Wf, x, h)
		oRaw := l.gate(l.Wo, x, h)
		gRaw := l.gate(l.Wg, x, h)
		nh := make([]float64, l.Hidden)
		nc := make([]float64, l.Hidden)
		for k := 0; k < l.Hidden; k++ {
			ik := sigmoid(iRaw[k])
			fk := sigmoid(fRaw[k])
			ok := sigmoid(oRaw[k])
			gk := math.Tanh(gRaw[k])
			nc[k] = fk*c[k] + ik*gk
			nh[k] = ok * math.Tanh(nc[k])
		}
		h, c = nh, nc
	}
	return l.Head.Infer(h)
}

// Backward backpropagates dL/dOutput through the head and the full
// sequence (BPTT), accumulating parameter gradients.
func (l *LSTM) Backward(grad []float64) {
	T := len(l.seq)
	dh := l.Head.Backward(grad)
	dc := make([]float64, l.Hidden)
	cols := l.In + l.Hidden + 1
	for t := T - 1; t >= 0; t-- {
		x := l.seq[t]
		hPrev, cPrev := l.hs[t], l.cs[t]
		i, f, o, g := l.is[t], l.fs[t], l.os[t], l.gs[t]
		c := l.cs[t+1]
		dhNext := make([]float64, l.Hidden)
		dcNext := make([]float64, l.Hidden)
		for k := 0; k < l.Hidden; k++ {
			tc := math.Tanh(c[k])
			do := dh[k] * tc
			dck := dc[k] + dh[k]*o[k]*(1-tc*tc)
			di := dck * g[k]
			dg := dck * i[k]
			df := dck * cPrev[k]
			dcNext[k] += dck * f[k]

			// raw (pre-activation) gate gradients
			diRaw := di * i[k] * (1 - i[k])
			dfRaw := df * f[k] * (1 - f[k])
			doRaw := do * o[k] * (1 - o[k])
			dgRaw := dg * (1 - g[k]*g[k])

			accum := func(w, dw []float64, raw float64) {
				row := w[k*cols : (k+1)*cols]
				dRow := dw[k*cols : (k+1)*cols]
				for a, xa := range x {
					dRow[a] += raw * xa
				}
				for b, hb := range hPrev {
					dRow[l.In+b] += raw * hb
					dhNext[b] += raw * row[l.In+b]
				}
				dRow[cols-1] += raw
			}
			accum(l.Wi, l.dWi, diRaw)
			accum(l.Wf, l.dWf, dfRaw)
			accum(l.Wo, l.dWo, doRaw)
			accum(l.Wg, l.dWg, dgRaw)
		}
		dh = dhNext
		dc = dcNext
	}
}

// Params returns all parameter/gradient pairs for optimisation.
func (l *LSTM) Params() []Param {
	out := []Param{
		{Value: l.Wi, Grad: l.dWi},
		{Value: l.Wf, Grad: l.dWf},
		{Value: l.Wo, Grad: l.dWo},
		{Value: l.Wg, Grad: l.dWg},
	}
	return append(out, l.Head.Params()...)
}

// TrainLSTM fits the LSTM on sequences with Adam + MSE.
func TrainLSTM(l *LSTM, seqs [][][]float64, targets [][]float64, cfg TrainConfig) (TrainHistory, error) {
	if len(seqs) == 0 || len(seqs) != len(targets) {
		return TrainHistory{}, fmt.Errorf("%w: %d sequences, %d targets", ErrBadDataset, len(seqs), len(targets))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	opt := &Adam{LR: cfg.LR}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(seqs))
	for i := range idx {
		idx[i] = i
	}
	params := l.Params()
	var hist TrainHistory
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var loss float64
		var count int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			invB := 1.0 / float64(len(batch))
			for _, s := range batch {
				pred := l.Forward(seqs[s])
				grad := make([]float64, len(pred))
				for j, p := range pred {
					d := p - targets[s][j]
					loss += d * d
					grad[j] = 2 * d * invB / float64(len(pred))
				}
				l.Backward(grad)
				count++
			}
			opt.Step(params)
		}
		hist.TrainMSE = append(hist.TrainMSE, loss/float64(count*l.Out))
	}
	return hist, nil
}
