package main

import (
	"math/rand"
	"testing"
	"time"
)

// fakeClock advances only when slept on; each SleepUntil may overshoot by
// a scripted amount, as a descheduled generator would.
type fakeClock struct {
	cur       time.Duration
	overshoot []time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Duration { return c.cur }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.cur {
		c.cur = t
	}
	if c.sleeps < len(c.overshoot) {
		c.cur += c.overshoot[c.sleeps]
	}
	c.sleeps++
}

func msd(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestDispatchCountsLatenessWithoutShiftingTheSchedule(t *testing.T) {
	dues := []time.Duration{msd(0), msd(10), msd(20), msd(30), msd(40)}
	// The generator stalls 25ms when issuing the second request: the
	// third and fourth are overdue and go out at once, late by what is
	// left of the stall; the schedule itself does not move.
	clk := &fakeClock{overshoot: []time.Duration{0, msd(25)}}
	var issuedAt []time.Duration
	late := dispatch(clk, dues, func(int) { issuedAt = append(issuedAt, clk.Now()) })
	wantLate := []time.Duration{0, msd(25), msd(15), msd(5), 0}
	wantAt := []time.Duration{msd(0), msd(35), msd(35), msd(35), msd(40)}
	for i := range dues {
		if late[i] != wantLate[i] || issuedAt[i] != wantAt[i] {
			t.Errorf("request %d: late %v issued %v; want late %v issued %v", i, late[i], issuedAt[i], wantLate[i], wantAt[i])
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// A request due at 10ms, issued late at 35ms and answered at 40ms
	// waited 30ms from the user's point of view, not 5ms.
	if got := latencyFromDue(msd(10), msd(40)); got != msd(30) {
		t.Errorf("latency = %v, want 30ms", got)
	}
}

func TestScheduleDuesOffersExactCountInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dues := scheduleDues(500, 5*time.Second, rng.Float64)
	if len(dues) != 500 {
		t.Fatalf("%d arrivals, want exactly 500", len(dues))
	}
	for i, d := range dues {
		if d < 0 || d >= 5*time.Second || (i > 0 && d < dues[i-1]) {
			t.Fatalf("arrival %d at %v out of order or outside the span", i, d)
		}
	}
	again := scheduleDues(500, 5*time.Second, rand.New(rand.NewSource(1)).Float64)
	for i := range dues {
		if again[i] != dues[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
	}
}

func TestClassCountsKeepExactShares(t *testing.T) {
	hot, warm, cold := classCounts(1000)
	if hot != 800 || warm != 100 || cold != 100 {
		t.Errorf("classCounts(1000) = %d/%d/%d, want 800/100/100", hot, warm, cold)
	}
	hot, warm, cold = classCounts(333)
	if hot+warm+cold != 333 {
		t.Errorf("classCounts(333) sums to %d", hot+warm+cold)
	}
}

func TestParseGCLine(t *testing.T) {
	line := "gc 12 @3.456s 1%: 0.018+1.2+0.003 ms clock, 0.036+0.1/0.7/0.2+0.006 ms cpu, 14->15->7 MB, 16 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	pause, start, live, ok := parseGCLine(line)
	if !ok || pause < 0.0209 || pause > 0.0211 || start != 14 || live != 7 {
		t.Errorf("parseGCLine = %v %v %v %v", pause, start, live, ok)
	}
	if _, _, _, ok := parseGCLine("serve: listening on 127.0.0.1:1"); ok {
		t.Error("a non-gctrace line parsed")
	}
}

func TestBacklogGrowsOnlyWhenLateRequestsWaitLonger(t *testing.T) {
	steady := []float64{0, 3, 1, 0, 2, 40, 1, 0, 3}
	if backlogGrows(steady) {
		t.Error("a steady queue with one slow request counted as a growing backlog")
	}
	growing := []float64{0, 10, 20, 60, 90, 120, 180, 220, 260}
	if !backlogGrows(growing) {
		t.Error("waits rising by 200ms across the phase did not count as a growing backlog")
	}
	if backlogGrows([]float64{500, 600}) {
		t.Error("too few requests to split into thirds must not count")
	}
}
