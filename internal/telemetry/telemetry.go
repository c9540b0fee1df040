// Package telemetry is the runtime measurement layer for the Gist pipeline:
// atomic counters and gauges, fixed-bucket histograms for nanosecond
// latencies and byte sizes, span tracing with a Chrome trace_event JSON
// exporter, and a per-step memory timeline that turns the planner's static
// footprint predictions into measured data.
//
// The design premium is the zero-cost default: every instrument is safe on
// a nil receiver, so uninstrumented runs pay exactly one nil check per
// call site (guarded by a benchmark). A non-nil Sink is safe for concurrent
// use from any number of goroutines — the chunked codec workers, the
// executor's async decode futures and the recovery loop all feed one sink.
//
// Metric names are dotted paths ("codec.encode.DPR.ns"). The one exporter
// is the Prometheus exposition in the promexport subpackage, which rewrites
// a handful of well-known prefixes into labeled families — stash.<tech>.*
// becomes gist_stash_*{technique}, the per-technique raw and held bytes a
// compression ratio divides.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil Counter is
// valid and discards all updates, so call sites cache the pointer once and
// never branch.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d to the counter. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge discards updates.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v is larger — the lock-free running
// maximum used for peak-footprint tracking.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of every histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), with
// bucket 0 holding v <= 0. Power-of-two buckets cover the full int64 range
// (1 ns .. ~292 years; 1 B .. 8 EiB) with no configuration.
const histBuckets = 65

// Histogram is a fixed-bucket power-of-two histogram with atomic buckets,
// suitable for nanosecond latencies and byte sizes, read through Snapshot.
// The nil Histogram discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// HistBuckets is the exported bucket count of every histogram (bucket i
// counts observations v with bits.Len64(v) == i; see BucketUpperEdge).
const HistBuckets = histBuckets

// BucketUpperEdge returns the largest value bucket i holds: 0 for bucket 0
// (non-positive observations), 2^i - 1 for 1 <= i < 63, and MaxInt64 for
// the top buckets (where 1<<i would overflow int64).
func BucketUpperEdge(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 63:
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// HistogramSnapshot is a point-in-time copy of one histogram, the unit the
// Prometheus exporter renders from. Buckets[i] counts observations in
// (BucketUpperEdge(i-1), BucketUpperEdge(i)].
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [HistBuckets]int64
}

// Snapshot copies the histogram's current state. A snapshot taken while
// writers are mid-Observe may momentarily hold fewer bucket counts than
// Count (count is incremented before the bucket); never more.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the snapshot's average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Sink is a registry of named instruments plus the trace buffer and the
// latest memory sample. The nil Sink is valid: every method no-ops or
// returns a nil instrument, so a fully uninstrumented run costs only nil
// checks.
type Sink struct {
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	trace atomic.Pointer[traceBuf]
	obs   atomic.Pointer[observerRef]
	// memo is Memo's table, replaced whole (copy on write) under memoMu:
	// it holds an entry per caching package, a handful at most.
	memoMu sync.Mutex
	memo   atomic.Pointer[[]memoEntry]

	memMu   sync.Mutex
	lastMem MemSample
	memSeen bool
	// memTech holds each technique's stash.<tech>.raw_bytes and
	// .held_bytes counters, resolved on the technique's first sample so a
	// later sample builds no names.
	memTech map[string][2]*Counter
}

// Observer receives a live copy of every span, instant and memory sample
// the sink records — the flight recorder's tap. Implementations must be
// safe for concurrent use and must not call back into the sink.
// Timestamps are nanoseconds since the sink's epoch. A memory sample's
// ByTech rows belong to the code that recorded the sample and are valid
// only during ObserveMem: an observer that keeps them copies them.
type Observer interface {
	ObserveSpan(cat, name string, startNS, durNS int64)
	ObserveInstant(cat, name string, tsNS int64)
	ObserveMem(sm MemSample, tsNS int64)
}

// observerRef boxes the interface so it fits an atomic.Pointer.
type observerRef struct{ o Observer }

// SetObserver attaches (or, with nil, detaches) the sink's observer. With
// an observer attached, spans are delivered even when Chrome tracing is
// off — Begin returns a live span either way. Uninstrumented call sites
// still pay only an atomic load.
func (s *Sink) SetObserver(o Observer) {
	if s == nil {
		return
	}
	if o == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(&observerRef{o: o})
}

// observer returns the attached observer, or nil.
func (s *Sink) observer() Observer {
	if s == nil {
		return nil
	}
	if r := s.obs.Load(); r != nil {
		return r.o
	}
	return nil
}

// New returns an empty sink. Tracing is off until EnableTracing.
func New() *Sink {
	return &Sink{
		epoch:    time.Now(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op counter) on a nil sink. Hot paths should look the counter
// up once and cache the pointer; the lookup itself takes the sink mutex.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Memo returns the value memoised on the sink under key, storing mk(s)
// there on first use: how a package caches what it resolves from a sink —
// instrument pointers, above all — for exactly as long as the sink lives,
// so its hot path pays one lock-free load instead of a name build and a
// registry lookup. Key with the address of a package-level variable, so
// packages never collide. Returns nil on a nil sink.
func (s *Sink) Memo(key any, mk func(*Sink) any) any {
	if s == nil {
		return nil
	}
	if v, ok := s.memoized(key); ok {
		return v
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if v, ok := s.memoized(key); ok {
		return v
	}
	v := mk(s)
	var next []memoEntry
	if cur := s.memo.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, memoEntry{key, v})
	s.memo.Store(&next)
	return v
}

type memoEntry struct{ key, val any }

func (s *Sink) memoized(key any) (any, bool) {
	if cur := s.memo.Load(); cur != nil {
		for _, e := range *cur {
			if e.key == key {
				return e.val, true
			}
		}
	}
	return nil, false
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// sink).
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil on
// a nil sink).
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hists[name]
	if h == nil {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Values returns a point-in-time copy of every counter and gauge value,
// keyed by name — Gather without the histograms, used by tests and the
// benchmark to cross-check telemetry against independently kept reports.
func (s *Sink) Values() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]int64, len(s.counters)+len(s.gauges))
	for name, c := range s.counters {
		m[name] = c.Value()
	}
	for name, g := range s.gauges {
		m[name] = g.Value()
	}
	return m
}

// Metrics is a point-in-time copy of every instrument in the sink, keyed
// by name — the unit the Prometheus exporter gathers. When tracing is
// armed, the bounded trace buffer's drop count rides along as the
// "telemetry.trace.dropped" counter so silent truncation is visible.
type Metrics struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Gather snapshots every counter, gauge and histogram. Returns the zero
// Metrics on a nil sink.
func (s *Sink) Gather() Metrics {
	if s == nil {
		return Metrics{}
	}
	s.mu.Lock()
	m := Metrics{
		Counters:   make(map[string]int64, len(s.counters)+1),
		Gauges:     make(map[string]int64, len(s.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.hists)),
	}
	for name, c := range s.counters {
		m.Counters[name] = c.Value()
	}
	for name, g := range s.gauges {
		m.Gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(s.hists))
	for name, h := range s.hists {
		hists[name] = h
	}
	s.mu.Unlock()
	for name, h := range hists {
		m.Histograms[name] = h.Snapshot()
	}
	if s.TracingEnabled() {
		m.Counters["telemetry.trace.dropped"] = s.TraceDropped()
	}
	return m
}

// now returns nanoseconds since the sink's epoch (trace timestamps).
func (s *Sink) now() int64 { return time.Since(s.epoch).Nanoseconds() }

// since returns the epoch-relative nanosecond timestamp of t.
func (s *Sink) since(t time.Time) int64 { return t.Sub(s.epoch).Nanoseconds() }

// --- memory timeline ---

// TechBytes is one technique's share of a memory sample: the FP32 bytes
// the stashed maps would occupy raw, and the bytes actually held encoded.
type TechBytes struct {
	Tech      string
	RawBytes  int64
	HeldBytes int64
}

// MemSample is one training step's stash-memory measurement: what the
// backward pass's working set would cost raw versus what the encoded
// representations actually hold, split per technique. This is the measured
// counterpart of the paper's Figure 2 lifetime argument.
type MemSample struct {
	Step      int
	RawBytes  int64 // FP32 bytes of all stashed feature maps
	HeldBytes int64 // bytes actually held across the forward→backward gap
	ByTech    []TechBytes
}

// RecordMemSample records one step's memory measurement: it becomes the
// sink's latest sample, raises the peak gauges (mem.peak_raw_bytes,
// mem.peak_held_bytes), adds to the cumulative per-technique counters
// (stash.<tech>.raw_bytes / .held_bytes, whose quotient is the measured
// compression ratio), reaches the observer, and, when tracing, emits
// Chrome counter events that render the timeline as a stacked area in
// Perfetto. The sink copies sm.ByTech into storage it owns, so the caller
// may reuse the rows' backing array for its next sample.
func (s *Sink) RecordMemSample(sm MemSample) {
	if s == nil {
		return
	}
	s.Gauge("mem.peak_raw_bytes").SetMax(sm.RawBytes)
	s.Gauge("mem.peak_held_bytes").SetMax(sm.HeldBytes)
	s.Counter("stash.samples").Inc()

	s.memMu.Lock()
	for _, tb := range sm.ByTech {
		c, ok := s.memTech[tb.Tech]
		if !ok {
			if s.memTech == nil {
				s.memTech = map[string][2]*Counter{}
			}
			c = [2]*Counter{s.Counter("stash." + tb.Tech + ".raw_bytes"), s.Counter("stash." + tb.Tech + ".held_bytes")}
			s.memTech[tb.Tech] = c
		}
		c[0].Add(tb.RawBytes)
		c[1].Add(tb.HeldBytes)
	}
	rows := append(s.lastMem.ByTech[:0], sm.ByTech...)
	s.lastMem, s.memSeen = sm, true
	s.lastMem.ByTech = rows
	s.memMu.Unlock()

	if ob := s.observer(); ob != nil {
		ob.ObserveMem(sm, s.now())
	}

	if s.TracingEnabled() {
		s.CounterEvent("stash bytes",
			Int("raw", sm.RawBytes), Int("held", sm.HeldBytes))
		if len(sm.ByTech) > 0 {
			args := make([]Arg, 0, len(sm.ByTech))
			for _, tb := range sm.ByTech {
				args = append(args, Int(tb.Tech, tb.HeldBytes))
			}
			s.CounterEvent("stash bytes by technique", args...)
		}
	}
}

// LastMemSample returns a copy of the most recent memory sample (ByTech
// nil when it has no rows, else a fresh copy of them), and false before
// the first. A reader of the totals alone calls LastMemTotals, which
// copies nothing.
func (s *Sink) LastMemSample() (MemSample, bool) {
	if s == nil {
		return MemSample{}, false
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	sm := s.lastMem
	sm.ByTech = nil
	if len(s.lastMem.ByTech) > 0 {
		sm.ByTech = append(sm.ByTech, s.lastMem.ByTech...)
	}
	return sm, s.memSeen
}

// LastMemTotals returns the raw and held bytes of the most recent memory
// sample, and false before the first. It allocates nothing: the SSE stream
// reads it once per step.
func (s *Sink) LastMemTotals() (raw, held int64, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	return s.lastMem.RawBytes, s.lastMem.HeldBytes, s.memSeen
}
