package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// compileAll builds one regressor per model family for the float32
// lowering tests.
func compileAll(t testing.TB) map[ModelKind]*Sequential {
	t.Helper()
	out := map[ModelKind]*Sequential{}
	for _, kind := range []ModelKind{ModelMLP, ModelResMLP, ModelODE} {
		net, err := NewRegressor(kind, 12, 16, 3, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out[kind] = net
	}
	return out
}

func TestCompile32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for kind, net := range compileAll(t) {
		n32, err := Compile32(net)
		if err != nil {
			t.Fatalf("%s: compile: %v", kind, err)
		}
		if n32.in != 12 || n32.out != 3 {
			t.Fatalf("%s: dims %d->%d, want 12->3", kind, n32.in, n32.out)
		}
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, 12)
			x32 := make([]float32, 12)
			for i := range x {
				x[i] = rng.NormFloat64()
				x32[i] = float32(x[i])
			}
			want := net.Infer(x)
			got := n32.Infer(x32)
			if len(got) != len(want) {
				t.Fatalf("%s: output length %d, want %d", kind, len(got), len(want))
			}
			for i := range want {
				if math.Abs(float64(got[i])-want[i]) > 1e-3*(1+math.Abs(want[i])) {
					t.Fatalf("%s trial %d out %d: float32 %g, float64 %g", kind, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCompile32Concurrent(t *testing.T) {
	net := compileAll(t)[ModelODE]
	n32, err := Compile32(net)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 12)
	for i := range x {
		x[i] = float32(i) * 0.1
	}
	want := n32.Infer(x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := n32.Infer(x)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent Infer diverged at %d: %g vs %g", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// opaqueLayer is a Layer implementation Compile32 has no lowering for.
type opaqueLayer struct{ ReLU }

func TestCompile32RejectsUnknownLayer(t *testing.T) {
	net := NewSequential(NewDense(4, 4, rand.New(rand.NewSource(1))), &opaqueLayer{})
	if _, err := Compile32(net); err == nil {
		t.Fatal("want error for unsupported layer, got nil")
	}
	if _, err := Compile32(nil); err == nil {
		t.Fatal("want error for nil network, got nil")
	}
}

func BenchmarkInferFloat64(b *testing.B) {
	net := compileAll(b)[ModelMLP]
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Infer(x)
	}
}

func BenchmarkInferFloat32(b *testing.B) {
	net := compileAll(b)[ModelMLP]
	n32, err := Compile32(net)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float32, 12)
	for i := range x {
		x[i] = float32(i) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n32.Infer(x)
	}
}
