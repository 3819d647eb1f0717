package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Registry is a named collection of metrics. Lookup is get-or-create
// and safe for concurrent use; instrumented packages resolve their
// handles once at init and never look up on the hot path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	timers     map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		timers:     map[string]*Timer{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(name)
		r.histograms[name] = h
	}
	return h
}

// Timer returns the named stage timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{h: newHistogram(name)}
		r.timers[name] = t
	}
	return t
}

// Reset zeroes every registered metric in place, so handles held by
// instrumented packages keep working.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.histograms {
		h.reset()
	}
	for _, t := range r.timers {
		t.h.reset()
	}
}

// reset zeroes a histogram in place.
func (h *Histogram) reset() {
	fresh := newHistogram(h.name)
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(fresh.minBits.Load())
	h.maxBits.Store(fresh.maxBits.Load())
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot is a point-in-time JSON-serialisable view of a registry.
// Map keys are metric names; TimerStats durations are in seconds.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	Timers     map[string]HistogramStats `json:"timers,omitempty"`
}

// Snapshot captures the registry's current values. Metrics keep
// recording concurrently; the snapshot is internally consistent per
// metric, not across metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.histograms)),
		Timers:     make(map[string]HistogramStats, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.stats()
	}
	for name, t := range r.timers {
		s.Timers[name] = t.h.stats()
	}
	return s
}

// WriteJSON writes the registry snapshot to w as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
