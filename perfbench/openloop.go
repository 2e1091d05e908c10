package main

import (
	"sort"
	"time"
)

// clock is the open-loop generator's time source: real time in runs, a
// fake one in tests.
type clock interface {
	// Now is the time since the clock's origin.
	Now() time.Duration
	// SleepUntil returns once Now() >= t (possibly later).
	SleepUntil(t time.Duration)
}

// wallClock is the real clock, with its origin at creation.
type wallClock struct{ origin time.Time }

func newWallClock() *wallClock { return &wallClock{origin: now()} }

func (c *wallClock) Now() time.Duration { return now().Sub(c.origin) }

func (c *wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// dispatch is the open-loop generator: it issues request i at dues[i]
// (ascending), whatever happened to earlier requests, and returns how late
// each was issued. A generator that falls behind issues the overdue
// requests at once, so their lateness is counted rather than the schedule
// shifted.
func dispatch(clk clock, dues []time.Duration, issue func(i int)) []time.Duration {
	late := make([]time.Duration, len(dues))
	for i, due := range dues {
		clk.SleepUntil(due)
		late[i] = clk.Now() - due
		issue(i)
	}
	return late
}

// latencyFromDue is a request's latency counted from when it was due to be
// sent, so a stall that delays later requests is charged to each of them.
func latencyFromDue(due, done time.Duration) time.Duration { return done - due }

// scheduleDues spreads n arrivals uniformly at random over [0, span) and
// sorts them: Poisson arrivals conditioned on their count, so every seed
// offers exactly rate x span requests. u supplies uniform [0,1) draws.
func scheduleDues(n int, span time.Duration, u func() float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(u() * float64(span))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}
