package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990, 10 beyond
		{9999, 99, true},    // p99.9 would leave 9 beyond
		{1000, 99, true},    // rank 990, 10 beyond
		{999, 95, true},     // p99 rank 990 leaves 9 beyond
		{200, 95, true},     // rank 190, 10 beyond
		{199, 90, true},     // p95 rank 190 leaves 9 beyond
		{100, 90, true},     // rank 90, 10 beyond
		{99, 0, false},      // p90 rank 90 leaves 9 beyond
		{0, 0, false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d p%v leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000) // values 1..1000
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := tail(xs); got != 990 {
		t.Errorf("tail of 1..1000 = %v, want p99 = 990", got)
	}
	if got := tail(seq(150)); got != 135 {
		t.Errorf("tail of 1..150 = %v, want p90 = 135", got)
	}
	if got := tail(seq(6)); got != 6 {
		t.Errorf("tail of 6 samples = %v, want the maximum", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || tail(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestRatioBases(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio with a zero base = %v, want 0 (nothing attempted)", got)
	}
	// share's base is the sum of both outcomes: 30 hits of 40 lookups.
	if got := share(30, 10); got != 0.75 {
		t.Errorf("share(30, 10) = %v, want 0.75", got)
	}
	if got := share(0, 0); got != 0 {
		t.Errorf("share(0, 0) = %v, want 0", got)
	}
	if got := overheadPct(200, 210); got != 5 {
		t.Errorf("overheadPct(200, 210) = %v, want 5", got)
	}
}

func mkSpan(start, end int) span {
	return span{Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := mkSpan(0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{mkSpan(10, 20), mkSpan(30, 50)}, 70},
		{"overlapping count once", []span{mkSpan(10, 40), mkSpan(30, 50)}, 60},
		{"nested", []span{mkSpan(10, 60), mkSpan(20, 30)}, 50},
		{"clipped to the parent", []span{mkSpan(-10, 10), mkSpan(90, 130)}, 80},
		{"outside the parent", []span{mkSpan(120, 130)}, 100},
		{"fully covered", []span{mkSpan(0, 60), mkSpan(50, 100)}, 0},
		{"unsorted", []span{mkSpan(70, 80), mkSpan(10, 20)}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want*time.Millisecond {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want*time.Millisecond)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.timed("x", 0, 1, func() {}); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr := newTracer()
	parent := tr.start("parent", 0, 7)
	child := tr.timed("child", parent, 7, func() {})
	tr.finish(parent)
	if got := tr.children(parent); len(got) != 1 || got[0].ID != child || got[0].Trace != 7 {
		t.Fatalf("children(parent) = %+v", got)
	}
	p := tr.get(parent)
	if p.End < p.Start || selfTime(p, tr.children(parent)) > p.dur() {
		t.Fatalf("bad parent span %+v", p)
	}
	if n := len(tr.named("child")); n != 1 {
		t.Fatalf("named(child) found %d spans", n)
	}
}
