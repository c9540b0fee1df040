package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one step (or one job) share Key; Parent is the index of
// the span that caused this one, -1 for a root.
type span struct {
	Name   string
	Key    string
	Track  int // Chrome trace thread id: one per client goroutine
	Parent int
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. Safe for concurrent
// use: the serve workload records from two client goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return newRecorderAt(time.Now()) }

// newRecorderAt returns a recorder whose trace starts at t0, for spans built
// from timestamps taken earlier.
func newRecorderAt(t0 time.Time) *recorder { return &recorder{t0: t0} }

// add records a finished span and returns its index.
func (r *recorder) add(parent int, name, key string, track int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Key: key, Track: track, Parent: parent,
		Start: start.Sub(r.t0), End: end.Sub(r.t0),
	})
	return len(r.spans) - 1
}

// begin opens a span ending at its start; finish closes it. Children may be
// added in between.
func (r *recorder) begin(parent int, name, key string, track int) int {
	now := time.Now()
	return r.add(parent, name, key, track, now, now)
}

func (r *recorder) finish(id int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (children clipped to the parent, overlaps between
// children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durationsMS returns the duration in milliseconds of every span with the
// given name.
func (r *recorder) durationsMS(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeChrome flushes the spans as Chrome trace JSON ("X" complete events;
// open in chrome://tracing or ui.perfetto.dev). args carry the shared key,
// the parent span and the self time.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"key": s.Key, "id": i, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
