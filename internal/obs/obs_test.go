package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled runs the test body with recording on and restores the
// previous state afterwards.
func withEnabled(t *testing.T) {
	t.Helper()
	prev := Enabled()
	Enable()
	t.Cleanup(func() {
		if !prev {
			Disable()
		}
	})
}

func TestHistogramQuantileAccuracyUniform(t *testing.T) {
	withEnabled(t)
	h := newHistogram("uniform")
	// 1..10000 in shuffled order: quantiles are known exactly.
	rng := rand.New(rand.NewSource(1))
	vals := rng.Perm(10000)
	for _, v := range vals {
		h.Observe(float64(v + 1))
	}
	if got := h.Count(); got != 10000 {
		t.Fatalf("count = %d, want 10000", got)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 5000}, {0.95, 9500}, {0.99, 9900}, {1, 10000},
	} {
		got := h.Quantile(tc.q)
		relErr := math.Abs(got-tc.want) / tc.want
		if relErr > 0.10 {
			t.Errorf("q%.2f = %.1f, want %.1f (rel err %.3f > 0.10)", tc.q, got, tc.want, relErr)
		}
	}
}

func TestHistogramQuantileAccuracyLogNormal(t *testing.T) {
	withEnabled(t)
	h := newHistogram("lognormal")
	rng := rand.New(rand.NewSource(7))
	n := 20000
	samples := make([]float64, n)
	for i := range samples {
		// Heavy-tailed microsecond-to-second scale, like stage timings.
		samples[i] = 1e-5 * math.Exp(rng.NormFloat64()*1.5)
		h.Observe(samples[i])
	}
	sorted := append([]float64(nil), samples...)
	for i := range sorted {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := sorted[int(math.Ceil(q*float64(n)))-1]
		got := h.Quantile(q)
		relErr := math.Abs(got-want) / want
		if relErr > 0.10 {
			t.Errorf("q%.2f = %g, want %g (rel err %.3f > 0.10)", q, got, want, relErr)
		}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	if math.Abs(h.Sum()-sum) > 1e-9*math.Abs(sum) {
		t.Errorf("sum = %g, want %g", h.Sum(), sum)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	withEnabled(t)
	h := newHistogram("edge")
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// All land in the underflow bucket; quantiles stay within the
	// clamped [min, max] range and are finite.
	if q := h.Quantile(0.5); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Errorf("degenerate quantile = %g", q)
	}
}

func TestCounterConcurrent(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("depth")
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %g, want 0", got)
	}
}

func TestTimerConcurrent(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	tm := r.Timer("stage")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				span := tm.Start()
				span.Stop()
			}
		}()
	}
	wg.Wait()
	if got := tm.h.Count(); got != workers*per {
		t.Errorf("timer count = %d, want %d", got, workers*per)
	}
	if tot := tm.h.Sum(); tot < 0 {
		t.Errorf("total = %g, want >= 0", tot)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	h := r.Histogram("conc")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) + 1)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	want := float64(workers*per) * float64(workers*per+1) / 2
	if math.Abs(h.Sum()-want) > 1e-6*want {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

func TestDisabledRecordsNothingAndNilSafe(t *testing.T) {
	prev := Enabled()
	Disable()
	t.Cleanup(func() {
		if prev {
			Enable()
		}
	})
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tm := r.Timer("t")
	c.Inc()
	c.Add(10)
	g.Set(3)
	g.Add(2)
	h.Observe(1)
	tm.Start().Stop()
	tm.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tm.h.Count() != 0 {
		t.Errorf("disabled layer recorded: counter %d gauge %g hist %d timer %d",
			c.Value(), g.Value(), h.Count(), tm.h.Count())
	}

	// Nil handles are valid no-ops.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	var nt *Timer
	nc.Inc()
	nc.Add(5)
	ng.Set(1)
	ng.Add(1)
	nh.Observe(1)
	nt.Start().Stop()
	nt.Observe(time.Second)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Quantile(0.5) != 0 {
		t.Error("nil handles recorded values")
	}
	Span{}.Stop() // zero Span must be safe
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("counter lookup not stable")
	}
	if r.Timer("y") != r.Timer("y") {
		t.Error("timer lookup not stable")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.Counter("windows").Add(42)
	r.Gauge("queue").Set(3.5)
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	tm := r.Timer("stage")
	tm.Observe(25 * time.Millisecond)
	tm.Observe(75 * time.Millisecond)

	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot round trip mismatch:\n  out: %+v\n  in:  %+v", snap, back)
	}
	if back.Counters["windows"] != 42 {
		t.Errorf("counter = %d, want 42", back.Counters["windows"])
	}
	if got := back.Timers["stage"]; got.Count != 2 || got.Sum <= 0 {
		t.Errorf("timer stats = %+v", got)
	}
	if got := back.Histograms["lat"]; got.Count != 100 || got.Min != 0.001 || got.Max != 0.1 {
		t.Errorf("hist stats = %+v", got)
	}
}

func TestRegistryReset(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Add(5)
	h.Observe(1)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Errorf("reset left counter %d hist %d", c.Value(), h.Count())
	}
	// Handles keep working after reset.
	c.Inc()
	h.Observe(2)
	if c.Value() != 1 || h.Count() != 1 {
		t.Errorf("post-reset recording broken: counter %d hist %d", c.Value(), h.Count())
	}
	if got := h.Quantile(0.5); math.Abs(got-2) > 0.25 {
		t.Errorf("post-reset quantile = %g, want ~2", got)
	}
}

func TestDebugHandler(t *testing.T) {
	withEnabled(t)
	Default.Counter("test.handler.hits").Inc()
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return sb.String()
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/debug/metrics")), &snap); err != nil {
		t.Fatalf("/debug/metrics is not snapshot JSON: %v", err)
	}
	if _, ok := snap.Counters["test.handler.hits"]; !ok {
		t.Error("/debug/metrics missing registered counter")
	}
	if body := get("/debug/vars"); !strings.Contains(body, "soundboost") {
		t.Error("/debug/vars missing soundboost key")
	}
	if body := get("/"); !strings.Contains(body, "/debug/metrics") {
		t.Error("index page missing endpoint listing")
	}
}
