// Package flightrec is a crash flight recorder: a fixed-size lock-free
// ring that taps a telemetry sink's span/instant/memory stream and keeps
// only the most recent events. It costs two atomic ops per event on the
// recording side and is safe to dump at any moment — including from a
// signal handler while training threads are still writing — which is the
// point: when a job fails, stalls into quarantine, or misses its deadline,
// the last seconds of its telemetry are serialized to JSON next to the
// admission-ledger state and the final recovery report, so the postmortem
// does not depend on having had tracing enabled.
//
// The ring is a power-of-two slice of atomic pointers plus one atomic
// sequence counter. Writers claim a slot with seq.Add and Store a fully
// built immutable Event; readers Load whatever is present. A reader racing
// a lapping writer can observe a slot's newer event alongside older
// neighbours — Events sorts by sequence number and tolerates gaps, so the
// dump is always a consistent "most recent N-ish events" view rather than
// a torn one.
package flightrec

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"gist/internal/telemetry"
)

// DefaultEvents is the ring capacity used when none is given: enough for
// several training steps' worth of spans without holding more than a few
// hundred KB per job.
const DefaultEvents = 512

// Event is one recorded occurrence. Kind is "span", "instant" or "mem";
// Dur is set only for spans, Mem only for memory samples.
type Event struct {
	Seq  uint64               `json:"seq"`
	Kind string               `json:"kind"`
	TS   int64                `json:"ts_ns"`
	Dur  int64                `json:"dur_ns,omitempty"`
	Cat  string               `json:"cat,omitempty"`
	Name string               `json:"name,omitempty"`
	Mem  *telemetry.MemSample `json:"mem,omitempty"`
}

// Recorder is the ring. It implements telemetry.Observer; attach it with
// Sink.SetObserver. The zero value is not usable — call New.
type Recorder struct {
	ring []atomic.Pointer[Event]
	mask uint64
	seq  atomic.Uint64
}

// New returns a recorder holding the most recent capEvents events
// (rounded up to a power of two; <=0 selects DefaultEvents).
func New(capEvents int) *Recorder {
	if capEvents <= 0 {
		capEvents = DefaultEvents
	}
	n := 1
	for n < capEvents {
		n <<= 1
	}
	return &Recorder{ring: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
}

// record claims the next slot and publishes ev.
func (r *Recorder) record(ev *Event) {
	seq := r.seq.Add(1) - 1
	ev.Seq = seq
	r.ring[seq&r.mask].Store(ev)
}

// ObserveSpan implements telemetry.Observer.
func (r *Recorder) ObserveSpan(cat, name string, startNS, durNS int64) {
	r.record(&Event{Kind: "span", TS: startNS, Dur: durNS, Cat: cat, Name: name})
}

// ObserveInstant implements telemetry.Observer.
func (r *Recorder) ObserveInstant(cat, name string, tsNS int64) {
	r.record(&Event{Kind: "instant", TS: tsNS, Cat: cat, Name: name})
}

// ObserveMem implements telemetry.Observer. The event keeps its own copy
// of the sample's rows.
func (r *Recorder) ObserveMem(sm telemetry.MemSample, tsNS int64) {
	sm.ByTech = slices.Clone(sm.ByTech)
	r.record(&Event{Kind: "mem", TS: tsNS, Mem: &sm})
}

// Total returns how many events have ever been recorded (recorded, not
// retained: the ring keeps at most cap of them).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Events snapshots the retained events in sequence order. Concurrent
// writers may lap the read; the result is still internally consistent
// (sorted, no duplicates), just possibly missing a few of the oldest.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	for i := range r.ring {
		if ev := r.ring[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump is the serialized flight record.
type Dump struct {
	Reason      string  `json:"reason"`
	EventsTotal uint64  `json:"events_total"`
	Meta        any     `json:"meta,omitempty"`
	Events      []Event `json:"events"`
}

// WriteJSON serializes the current ring contents with a reason string and
// arbitrary metadata (job status, ledger state, recovery report).
func (r *Recorder) WriteJSON(w io.Writer, reason string, meta any) error {
	d := Dump{
		Reason:      reason,
		EventsTotal: r.Total(),
		Meta:        meta,
		Events:      r.Events(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}
