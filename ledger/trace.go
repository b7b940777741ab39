package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"qswitch/internal/obs"
)

// spanID names a span within one tracer; 0 is "no parent".
type spanID int32

// span is one timed call into a layer: its name, its interval as offsets
// from the tracer's epoch, and the span that caused it.
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one traced iteration in memory. Clocks are
// read once per call into a layer, never inside a layer's loops. Spans
// may start and end on any goroutine.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// root is the span around the whole iteration; workloads parent their
	// top-level spans to it.
	root spanID
	// probes is the registry the obs probe bundles flush into while the
	// iteration runs.
	probes *obs.Registry
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent spanID) spanID {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id spanID) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanSet answers per-layer questions about one iteration's spans.
type spanSet []span

// total sums the durations of the spans named name, in seconds.
func (ss spanSet) total(name string) float64 {
	var d time.Duration
	for _, s := range ss {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d.Seconds()
}

// durations lists the durations of the spans named name.
func (ss spanSet) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Children may overlap each other (a fleet batch
// steps on a side goroutine while the judge runs), so the covered part is
// the union of their intervals, clipped to the parent.
func (ss spanSet) selfTime(id spanID) time.Duration {
	p := ss[id-1]
	var kids [][2]time.Duration
	for _, s := range ss {
		if s.Parent == id {
			kids = append(kids, [2]time.Duration{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	var covered time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		if k[1] <= k[0] {
			continue
		}
		if k[0] > curE {
			covered += curE - curS
			curS, curE = k[0], k[1]
		} else if k[1] > curE {
			curE = k[1]
		}
	}
	covered += curE - curS
	return p.dur() - covered
}

// selfTotal sums selfTime over the spans named name, in seconds.
func (ss spanSet) selfTotal(name string) float64 {
	var d time.Duration
	for _, s := range ss {
		if s.Name == name {
			d += ss.selfTime(s.ID)
		}
	}
	return d.Seconds()
}

// writeSpans writes each iteration's spans as JSON lines, tagged with the
// iteration index.
func writeSpans(w io.Writer, iters []spanSet) error {
	enc := json.NewEncoder(w)
	for i, ss := range iters {
		for _, s := range ss {
			if err := enc.Encode(struct {
				Iter int `json:"iter"`
				span
			}{i, s}); err != nil {
				return err
			}
		}
	}
	return nil
}
