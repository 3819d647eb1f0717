package nn

import (
	"fmt"
	"math"
	"sync"
)

// Net32 is a float32 inference-only lowering of a trained Sequential:
// flat row-major float32 weight slabs walked by tight component loops,
// with pooled activation scratch so concurrent Infer calls never
// contend or allocate per layer. It exists for the opt-in float32 hot
// path — training and the default float64 verdict path never touch it.
type Net32 struct {
	in, out int
	ops     []op32
	maxDim  int // widest activation across the program
	scratch sync.Pool
}

// op32 is one lowered layer. Exactly one of the fields below is used,
// selected by kind.
type op32 struct {
	kind  opKind32
	dense *dense32
	inner *Net32 // residual / ODE sub-program
	steps int    // ODE forward-Euler steps
	h     float32
}

type opKind32 uint8

const (
	opDense32 opKind32 = iota
	opReLU32
	opTanh32
	opResidual32
	opODE32
)

type dense32 struct {
	in, out int
	w       []float32 // row-major out x in
	b       []float32
}

// Compile32 lowers a trained Sequential into a Net32. It understands
// the concrete layer set NewRegressor emits (Dense, ReLU, Tanh,
// Residual, ODEBlock, nested Sequential); any other Layer
// implementation returns an error so callers can fall back to the
// float64 path.
func Compile32(s *Sequential) (*Net32, error) {
	if s == nil {
		return nil, fmt.Errorf("nn: compile nil network")
	}
	n := &Net32{in: -1, out: -1}
	dim := -1
	for i, l := range s.Layers {
		switch v := l.(type) {
		case *Dense:
			w := make([]float32, len(v.W))
			for j, x := range v.W {
				w[j] = float32(x)
			}
			b := make([]float32, len(v.B))
			for j, x := range v.B {
				b[j] = float32(x)
			}
			n.ops = append(n.ops, op32{kind: opDense32, dense: &dense32{in: v.In, out: v.Out, w: w, b: b}})
			if n.in < 0 {
				n.in = v.In
			}
			dim = v.Out
		case *ReLU:
			n.ops = append(n.ops, op32{kind: opReLU32})
		case *Tanh:
			n.ops = append(n.ops, op32{kind: opTanh32})
		case *Residual:
			inner, err := Compile32(v.Inner)
			if err != nil {
				return nil, fmt.Errorf("nn: residual layer %d: %w", i, err)
			}
			n.ops = append(n.ops, op32{kind: opResidual32, inner: inner})
		case *ODEBlock:
			inner, err := Compile32(v.F)
			if err != nil {
				return nil, fmt.Errorf("nn: ODE layer %d: %w", i, err)
			}
			n.ops = append(n.ops, op32{kind: opODE32, inner: inner, steps: v.Steps, h: float32(v.H)})
		default:
			return nil, fmt.Errorf("nn: cannot lower layer %d (%T) to float32", i, l)
		}
	}
	if n.in < 0 {
		return nil, fmt.Errorf("nn: network has no dense layers")
	}
	n.out = dim
	n.maxDim = n.widest(n.in)
	n.scratch.New = func() any {
		buf := make([]float32, 2*n.maxDim)
		return &buf
	}
	return n, nil
}

// widest computes the maximum activation width of the program starting
// from an input of width in, including sub-programs.
func (n *Net32) widest(in int) int {
	max := in
	dim := in
	for _, o := range n.ops {
		switch o.kind {
		case opDense32:
			dim = o.dense.out
		case opResidual32, opODE32:
			if w := o.inner.widest(dim); w > max {
				max = w
			}
		}
		if dim > max {
			max = dim
		}
	}
	return max
}

// Infer runs one sample through the program and returns a fresh output
// slice. It is safe for concurrent use; all intermediate activations
// live on pooled scratch.
func (n *Net32) Infer(x []float32) []float32 {
	bufp := n.scratch.Get().(*[]float32)
	defer n.scratch.Put(bufp)
	cur := (*bufp)[:len(x)]
	copy(cur, x)
	cur = n.run(cur, (*bufp)[n.maxDim:])
	out := make([]float32, len(cur))
	copy(out, cur)
	return out
}

// run executes the program in place over cur, using tmp (maxDim wide)
// for dense outputs and sub-program state. It returns the final
// activation, which aliases either cur or tmp.
func (n *Net32) run(cur, tmp []float32) []float32 {
	for _, o := range n.ops {
		switch o.kind {
		case opDense32:
			d := o.dense
			out := tmp[:d.out]
			for r := 0; r < d.out; r++ {
				sum := d.b[r]
				row := d.w[r*d.in : (r+1)*d.in]
				for i, xi := range cur[:d.in] {
					sum += row[i] * xi
				}
				out[r] = sum
			}
			cur, tmp = out, cur[:cap(cur)]
		case opReLU32:
			for i, v := range cur {
				if v < 0 {
					cur[i] = 0
				}
			}
		case opTanh32:
			for i, v := range cur {
				cur[i] = float32(math.Tanh(float64(v)))
			}
		case opResidual32:
			inner := o.inner
			ibufp := inner.scratch.Get().(*[]float32)
			icur := (*ibufp)[:len(cur)]
			copy(icur, cur)
			res := inner.run(icur, (*ibufp)[inner.maxDim:])
			for i := range cur {
				cur[i] += res[i]
			}
			inner.scratch.Put(ibufp)
		case opODE32:
			inner := o.inner
			ibufp := inner.scratch.Get().(*[]float32)
			for s := 0; s < o.steps; s++ {
				icur := (*ibufp)[:len(cur)]
				copy(icur, cur)
				fx := inner.run(icur, (*ibufp)[inner.maxDim:])
				for i := range cur {
					cur[i] += o.h * fx[i]
				}
			}
			inner.scratch.Put(ibufp)
		}
	}
	return cur
}
