package main

import (
	"fmt"
	"math"
	"sort"
)

// Span is one timed interval of a traced session. Start and End are
// seconds on the tracer's monotonic clock. Trace groups the spans of one
// session (its unique flight name); Parent indexes the enclosing span in
// the same slice, -1 for a session root.
type Span struct {
	Trace  string
	Name   string
	Start  float64
	End    float64
	Parent int
}

// Dur is the span's length.
func (s Span) Dur() float64 { return s.End - s.Start }

// interval is a closed time range used by the union arithmetic.
type interval struct{ lo, hi float64 }

// unionLen returns the total length covered by ivs after clipping each to
// [lo, hi]; overlapping intervals count once.
func unionLen(ivs []interval, lo, hi float64) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := math.Max(iv.lo, lo), math.Min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total := 0.0
	cur := interval{math.Inf(-1), math.Inf(-1)}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			if cur.hi > cur.lo {
				total += cur.hi - cur.lo
			}
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	if cur.hi > cur.lo {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns each span's self time: its length minus the union of
// its children's intervals, clipped to the span. The second result is
// the child time that fell outside its parent (clipped away), which
// shows up as a negative residual because the children still count
// their full self time.
func selfTimes(spans []Span) (self []float64, overflow float64) {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self = make([]float64, len(spans))
	for i, s := range spans {
		covered := unionLen(children[i], s.Start, s.End)
		whole := unionLen(children[i], math.Inf(-1), math.Inf(1))
		overflow += whole - covered
		self[i] = s.Dur() - covered
	}
	return self, overflow
}

// linkByContainment assigns every span whose Parent is unset (-2) the
// smallest span of the same trace that contains it. Ties go to the span
// recorded later: an enclosing call finishes, and so is recorded, after
// the calls it makes. Spans with no container become roots (-1).
func linkByContainment(spans []Span) {
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			if spans[i].Parent != unlinked {
				continue
			}
			best := -1
			for _, j := range idx {
				if j == i || spans[j].Start > spans[i].Start || spans[j].End < spans[i].End {
					continue
				}
				if spans[j].Dur() == spans[i].Dur() && j < i {
					continue // identical interval recorded earlier: a child of i, not its parent
				}
				if best < 0 || spans[j].Dur() < spans[best].Dur() ||
					(spans[j].Dur() == spans[best].Dur() && j < best) {
					best = j
				}
			}
			spans[i].Parent = best
		}
	}
}

// unlinked marks a span whose parent linkByContainment must find.
const unlinked = -2

// tailPercentile applies the benchmark's tail rule to ascending samples:
// the highest percentile that leaves at least minBeyond samples above
// it, by nearest rank. ok is false when there are too few samples, in
// which case the maximum is returned as the 100th percentile.
func tailPercentile(sorted []float64, minBeyond int) (value, pct float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := n - minBeyond
	if rank < 1 {
		return sorted[n-1], 100, false
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n), true
}

// median returns the middle of ascending samples (mean of the two middle
// ones for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Table is the per-layer breakdown of traced sessions: the summed self
// time of every span name outside the client, the summed session wall
// time, and what is left over.
type Table struct {
	// Self is the summed self time per span name (client spans excluded).
	Self map[string]float64
	// Incl is the summed inclusive time per span name.
	Incl map[string]float64
	// Count is the number of spans per name.
	Count map[string]int
	// Wall is the summed duration of the session roots.
	Wall float64
	// Rows is the sum of Self: the blocking-path rows.
	Rows float64
	// Residual is Wall - Rows: time no layer span accounts for (client
	// encode, loopback, scheduling). Negative when child spans grafted
	// from the component replay overflow their parents.
	Residual float64
	// ClientSelf is the self time of the client's own spans; it equals
	// Residual when nothing overflowed.
	ClientSelf float64
	// Overflow is the child time clipped away by selfTimes.
	Overflow float64
	// NegativeFlights counts the traces whose own residual is negative.
	NegativeFlights int
}

// clientSpan reports whether a span name belongs to the benchmark's
// client (session roots and client requests), which the layer rows
// exclude: their self time is the residual.
func clientSpan(name string) bool {
	return name == "session" || len(name) > 7 && name[:7] == "client."
}

// buildTable folds linked spans into a Table and checks its arithmetic:
// the self times of all spans of a session tree add up to the root's
// wall time unless children overflowed their parents.
func buildTable(spans []Span) (Table, error) {
	self, overflow := selfTimes(spans)
	t := Table{
		Self:     map[string]float64{},
		Incl:     map[string]float64{},
		Count:    map[string]int{},
		Overflow: overflow,
	}
	residual := map[string]float64{}
	for i, s := range spans {
		if s.Parent == -1 {
			t.Wall += s.Dur()
			residual[s.Trace] += s.Dur()
		}
		if clientSpan(s.Name) {
			t.ClientSelf += self[i]
			continue
		}
		t.Self[s.Name] += self[i]
		t.Incl[s.Name] += s.Dur()
		t.Count[s.Name]++
		t.Rows += self[i]
		residual[s.Trace] -= self[i]
	}
	t.Residual = t.Wall - t.Rows
	for _, r := range residual {
		if r < 0 {
			t.NegativeFlights++
		}
	}
	tol := 1e-9 * math.Max(1, t.Wall) * float64(len(spans)+1)
	if overflow <= tol && math.Abs(t.Rows+t.ClientSelf-t.Wall) > tol {
		return t, fmt.Errorf("layer table: rows %.9f + client %.9f != wall %.9f", t.Rows, t.ClientSelf, t.Wall)
	}
	return t, nil
}
