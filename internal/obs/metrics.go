package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is unusable; obtain counters from a Registry. A nil Counter is a
// valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n when the layer is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one when the layer is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (queue depth, utilization,
// configuration). A nil Gauge is a valid no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v when the layer is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta when the layer is enabled.
func (g *Gauge) Add(delta float64) {
	if g == nil || !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: geometric buckets growing by histGrowth per
// step from histMin, so a quantile estimate (geometric mean of its
// bucket's bounds) is within ~9% of the true value across the full
// ns-to-hours range the pipeline produces. Values below histMin (and
// <= 0) land in bucket 0; values off the top land in the last bucket.
const (
	histMin     = 1e-9
	histBuckets = 280
)

// histGrowth is 2^(1/4): four buckets per doubling, ~70 doublings of
// range (1e-9 .. ~1e12).
var (
	histGrowth    = math.Pow(2, 0.25)
	histInvLogG   = 1 / math.Log(histGrowth)
	histLogMin    = math.Log(histMin)
	histBoundsTab = func() [histBuckets + 1]float64 {
		var b [histBuckets + 1]float64
		for i := range b {
			b[i] = histMin * math.Pow(histGrowth, float64(i))
		}
		return b
	}()
)

// Histogram is a fixed-layout streaming histogram safe for concurrent
// Observe calls. It tracks count, sum, min and max exactly and
// estimates quantiles from its geometric buckets. A nil Histogram is a
// valid no-op handle.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits
	maxBits atomic.Uint64 // float64 bits
	buckets [histBuckets]atomic.Int64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin || math.IsNaN(v) {
		return 0
	}
	i := int((math.Log(v) - histLogMin) * histInvLogG)
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one sample when the layer is enabled. NaN samples
// are dropped — they would poison the sum and the min/max extremes.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() || math.IsNaN(v) {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// samples. The estimate is exact at the recorded min/max and within one
// geometric bucket (~±9%) elsewhere. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return math.Float64frombits(h.minBits.Load())
	}
	if q >= 1 {
		return math.Float64frombits(h.maxBits.Load())
	}
	// Rank of the wanted sample, 1-based.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			lo, hi := histBoundsTab[i], histBoundsTab[i+1]
			// Clamp the bucket to the exact extremes so estimates never
			// leave the observed range.
			if min := math.Float64frombits(h.minBits.Load()); lo < min {
				lo = min
			}
			if max := math.Float64frombits(h.maxBits.Load()); hi > max {
				hi = max
			}
			if hi <= lo {
				return lo
			}
			return math.Sqrt(lo * hi)
		}
	}
	return math.Float64frombits(h.maxBits.Load())
}

// stats returns a consistent-enough summary for snapshots. Concurrent
// Observe calls may skew count vs sum by a sample; snapshots are
// diagnostics, not ledgers.
func (h *Histogram) stats() HistogramStats {
	s := HistogramStats{Count: h.Count(), Sum: h.Sum()}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
		s.Mean = s.Sum / float64(s.Count)
		s.P50 = h.Quantile(0.50)
		s.P95 = h.Quantile(0.95)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// HistogramStats is the JSON summary of a histogram or timer.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Timer measures named pipeline stages as a histogram of seconds. A nil
// Timer is a valid no-op handle.
type Timer struct {
	h *Histogram
}

// Start opens a timing span. On the disabled path it returns the zero
// Span, whose Stop is a no-op — the cost is one atomic load.
func (t *Timer) Start() Span {
	if t == nil || !enabled.Load() {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// Observe records a completed duration directly.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}

// Span is one in-flight stage measurement. The zero Span is valid and
// Stop on it does nothing.
type Span struct {
	t     *Timer
	start time.Time
}

// Stop closes the span and records its duration.
func (s Span) Stop() {
	if s.t == nil {
		return
	}
	s.t.h.Observe(time.Since(s.start).Seconds())
}
