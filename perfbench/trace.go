package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// now is the benchmark's only wall-clock read; every duration it reports
// is a difference of two now() values.
func now() time.Time {
	return time.Now() //lint:allow wallclock the benchmark measures elapsed wall time; nothing it times depends on the value
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call across a layer boundary. Spans of one unit of
// work (a table pass, a request, an impact call) share Trace; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// dur is the span's length.
func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay only the nil checks.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: now()} }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.origin) }

// start opens a span and returns its ID (0 on a nil tracer); finish
// closes it. IDs are allocated at start, so children can name a parent
// that is still open.
func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	w := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: t.at(w)})
	return len(t.spans)
}

// finish closes the span opened by start.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	w := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(w)
}

// add records a span whose start and end were taken elsewhere (as when an
// observer callback timestamps each attack) and returns its ID.
func (t *tracer) add(name string, parent, trace int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: t.at(start), End: t.at(end)})
	return len(t.spans)
}

// timed runs f inside a span and returns the span's ID.
func (t *tracer) timed(name string, parent, trace int, f func()) int {
	id := t.start(name, parent, trace)
	f()
	t.finish(id)
	return id
}

// get returns the span with the given ID.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// named returns the recorded spans called name, in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the lengths of spans in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once; the parts of children
// outside the parent's interval do not count.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// write saves the spans as JSON, for inspection after the run.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
