package main

import "time"

// span is one timed call into a layer, recorded from the benchmark's
// own code around the layer's public entry point.
type span struct {
	Name       string
	Parent     int // index of the parent span; -1 for a root span
	Trace      int // evaluation the span belongs to
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the traced run ends. Only the
// traced run has one: the untraced measurement makes no span calls.
type recorder struct {
	origin time.Time
	spans  []span
}

// newRecorder reserves room for n spans, so recording up to n spans
// allocates nothing inside the calls they time.
func newRecorder(n int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, n)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, trace int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Trace: trace, Start: time.Since(r.origin)})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.origin) }

// selfTimes sums, per span name, each span's duration minus the part
// of it its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += s.dur() - child[i]
	}
	return out
}

// totals sums span durations per name.
func (r *recorder) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += s.dur()
	}
	return out
}
