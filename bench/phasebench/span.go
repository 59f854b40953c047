package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one recorded interval of a traced run: a pass, an op (one
// program or one request), or one call into a layer.
type span struct {
	name       string
	parent     int // index of the parent span, -1 for a root
	tid        int // Chrome trace row: 0 for batch work, the client for requests
	start, dur time.Duration
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// *recorder records nothing, so an untraced run pays one nil check per
// layer call. One goroutine records: the batch loop, or the service run
// after its clients have stopped.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span on row 0 and returns its handle for end.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.add(name, parent, 0, time.Since(r.t0), -1)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].dur = time.Since(r.t0) - r.spans[id].start
}

// add records a span whose bounds are already known.
func (r *recorder) add(name string, parent, tid int, start, dur time.Duration) int {
	r.spans = append(r.spans, span{name: name, parent: parent, tid: tid, start: start, dur: dur})
	return len(r.spans) - 1
}

// layer runs fn inside a span named after the layer it calls into.
func (r *recorder) layer(name string, parent int, fn func()) {
	id := r.begin(name, parent)
	fn()
	r.end(id)
}

// totals sums span durations by name.
func (r *recorder) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.name] += s.dur
	}
	return out
}

// selfTimes sums, by name, each span's duration minus its children's.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.name] += self[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON, with the run
// stamp as metadata.
func (r *recorder) writeChrome(w io.Writer, st stamp) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{s.name, "X", float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, s.tid}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "otherData": st})
}
