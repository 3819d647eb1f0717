package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestUnionLen(t *testing.T) {
	cases := []struct {
		name   string
		ivs    []interval
		lo, hi float64
		want   float64
	}{
		{"empty", nil, 0, 10, 0},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 0, 10, 3},
		{"overlap counted once", []interval{{1, 4}, {3, 6}}, 0, 10, 5},
		{"nested", []interval{{1, 9}, {2, 3}, {4, 5}}, 0, 10, 8},
		{"unsorted", []interval{{7, 8}, {1, 2}, {1.5, 3}}, 0, 10, 3},
		{"touching", []interval{{1, 2}, {2, 3}}, 0, 10, 2},
		{"clipped to parent", []interval{{-1, 2}, {8, 12}}, 0, 10, 4},
		{"outside parent", []interval{{11, 12}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := unionLen(c.ivs, c.lo, c.hi); !near(got, c.want) {
			t.Errorf("%s: unionLen = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 5, Parent: 0},
		{Name: "b", Start: 3, End: 7, Parent: 0}, // overlaps a: [1,7] covered once
		{Name: "c", Start: 2, End: 3, Parent: 1},
	}
	self, overflow := selfTimes(spans)
	want := []float64{4, 3, 4, 1}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if overflow != 0 {
		t.Errorf("overflow = %v, want 0", overflow)
	}
}

func TestSelfTimesReportsOverflow(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 2, Parent: -1},
		{Name: "child", Start: 1, End: 4, Parent: 0},
	}
	self, overflow := selfTimes(spans)
	if !near(self[0], 1) || !near(self[1], 3) || !near(overflow, 2) {
		t.Fatalf("self %v overflow %v, want [1 3] and 2", self, overflow)
	}
}

func TestLinkByContainment(t *testing.T) {
	// Recording order is completion order: inner spans first.
	spans := []Span{
		{Trace: "f1", Name: "server.frames", Start: 1.2, End: 1.8, Parent: unlinked},
		{Trace: "f1", Name: "client.frames", Start: 1, End: 2, Parent: unlinked},
		{Trace: "f2", Name: "server.frames", Start: 1.1, End: 1.9, Parent: unlinked}, // other session, overlapping in time
		{Trace: "f2", Name: "client.frames", Start: 1, End: 2, Parent: unlinked},
		{Trace: "f1", Name: "session", Start: 0, End: 3, Parent: unlinked},
		{Trace: "f2", Name: "session", Start: 0.5, End: 2.5, Parent: unlinked},
		{Trace: "f1", Name: "same-interval-inner", Start: 5, End: 6, Parent: unlinked},
		{Trace: "f1", Name: "same-interval-outer", Start: 5, End: 6, Parent: unlinked},
	}
	linkByContainment(spans)
	want := []int{1, 4, 3, 5, -1, -1, 7, -1}
	for i, w := range want {
		if spans[i].Parent != w {
			t.Errorf("%s/%s parent = %d, want %d", spans[i].Trace, spans[i].Name, spans[i].Parent, w)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	sorted := make([]float64, 40)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	v, pct, ok := tailPercentile(sorted, 10)
	if !ok || v != 30 || !near(pct, 75) {
		t.Fatalf("40 samples: got %v at p%v ok=%v, want 30 at p75", v, pct, ok)
	}
	beyond := 0
	for _, s := range sorted {
		if s > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
	v, pct, ok = tailPercentile(sorted[:11], 10)
	if !ok || v != 1 || !near(pct, 100.0/11) {
		t.Fatalf("11 samples: got %v at p%v ok=%v", v, pct, ok)
	}
	v, pct, ok = tailPercentile(sorted[:10], 10)
	if ok || v != 10 || pct != 100 {
		t.Fatalf("10 samples: got %v at p%v ok=%v, want max and ok=false", v, pct, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{1, 2, 3}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestBuildTableRowsPlusResidualEqualWall(t *testing.T) {
	spans := []Span{
		{Trace: "f", Name: "session", Start: 0, End: 10, Parent: -1},
		{Trace: "f", Name: "client.frames", Start: 1, End: 6, Parent: 0},
		{Trace: "f", Name: "server.frames", Start: 1.5, End: 5.5, Parent: 1},
		{Trace: "f", Name: "journal.append", Start: 1.5, End: 3, Parent: 2},
		{Trace: "f", Name: "client.report", Start: 7, End: 9, Parent: 0},
		{Trace: "f", Name: "server.report", Start: 7.2, End: 8.8, Parent: 4},
	}
	tab, err := buildTable(spans)
	if err != nil {
		t.Fatal(err)
	}
	if !near(tab.Wall, 10) || !near(tab.Rows, 5.6) || !near(tab.Residual, 4.4) || !near(tab.ClientSelf, 4.4) {
		t.Fatalf("wall %v rows %v residual %v client %v", tab.Wall, tab.Rows, tab.Residual, tab.ClientSelf)
	}
	if !near(tab.Self["server.frames"], 2.5) || !near(tab.Incl["server.frames"], 4) {
		t.Fatalf("server.frames self %v incl %v", tab.Self["server.frames"], tab.Incl["server.frames"])
	}
	if !near(tab.Rows+tab.Residual, tab.Wall) {
		t.Fatalf("rows + residual != wall")
	}
}

func TestBuildTableFlagsNegativeResidual(t *testing.T) {
	// A grafted child longer than its parent: the parent's self clips to
	// 0 but the child keeps its full self time, so the rows exceed the
	// wall and the residual goes negative.
	spans := []Span{
		{Trace: "f", Name: "session", Start: 0, End: 2, Parent: -1},
		{Trace: "f", Name: "server.frames", Start: 0.5, End: 1.5, Parent: 0},
		{Trace: "f", Name: "journal.append", Start: 0.5, End: 3.5, Parent: 1},
	}
	tab, err := buildTable(spans)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Residual >= 0 || !near(tab.Overflow, 2) || tab.NegativeFlights != 1 {
		t.Fatalf("residual %v overflow %v negative flights %d, want negative residual, overflow 2, 1 flight",
			tab.Residual, tab.Overflow, tab.NegativeFlights)
	}
}

func TestBuildTableRejectsOverlappingSiblings(t *testing.T) {
	// Siblings that overlap break the sum; the check must catch it.
	spans := []Span{
		{Trace: "f", Name: "session", Start: 0, End: 10, Parent: -1},
		{Trace: "f", Name: "server.a", Start: 1, End: 5, Parent: 0},
		{Trace: "f", Name: "server.b", Start: 4, End: 8, Parent: 0},
	}
	if _, err := buildTable(spans); err == nil {
		t.Fatal("overlapping siblings passed the arithmetic check")
	}
}
