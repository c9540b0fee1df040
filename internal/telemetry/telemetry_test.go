package telemetry

import (
	"sync"
	"testing"
)

func TestNilInstrumentsNoop(t *testing.T) {
	var s *Sink
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.SetMax(9)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot() != (HistogramSnapshot{}) {
		t.Fatal("nil instruments must read zero")
	}
	if s.Counter("x") != nil || s.Gauge("x") != nil || s.Histogram("x") != nil {
		t.Fatal("nil sink must hand out nil instruments")
	}
	if s.Values() != nil {
		t.Fatal("nil sink Values must be nil")
	}
	if m := s.Gather(); m.Counters != nil || m.Gauges != nil || m.Histograms != nil {
		t.Fatal("nil sink Gather must be the zero Metrics")
	}
	s.RecordMemSample(MemSample{Step: 1})
	if _, ok := s.LastMemSample(); ok {
		t.Fatal("nil sink cannot hold a memory sample")
	}
	s.EnableTracing(0)
	if s.TracingEnabled() {
		t.Fatal("nil sink cannot enable tracing")
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	s := New()
	c := s.Counter("c")
	g := s.Gauge("g")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per-1 {
		t.Fatalf("gauge max %d, want %d", got, workers*per-1)
	}
	if s.Counter("c") != c {
		t.Fatal("lookup must return the same counter instance")
	}
}

func TestHistogram(t *testing.T) {
	s := New()
	h := s.Histogram("h")
	for _, v := range []int64{1, 2, 3, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	sn := h.Snapshot()
	if sn.Count != 6 {
		t.Fatalf("count %d", sn.Count)
	}
	if sn.Max != 1<<20 {
		t.Fatalf("max %d", sn.Max)
	}
	if sn.Sum != 1+2+3+100+1000+1<<20 {
		t.Fatalf("sum %d", sn.Sum)
	}
	// Bucket i holds v with bits.Len64(v) == i: 2 and 3 share bucket 2.
	for i, want := range map[int]int64{1: 1, 2: 2, 7: 1, 10: 1, 21: 1} {
		if sn.Buckets[i] != want {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, sn.Buckets[i], want, sn.Buckets)
		}
	}
}

func TestValuesAndSnapshot(t *testing.T) {
	s := New()
	s.Counter("a.calls").Add(7)
	s.Gauge("b.depth").Set(3)
	s.Histogram("c.ns").Observe(500)
	v := s.Values()
	if v["a.calls"] != 7 || v["b.depth"] != 3 {
		t.Fatalf("values: %v", v)
	}
	m := s.Gather()
	if m.Counters["a.calls"] != 7 || m.Gauges["b.depth"] != 3 {
		t.Fatalf("gathered %v / %v", m.Counters, m.Gauges)
	}
	if h := m.Histograms["c.ns"]; h.Count != 1 || h.Sum != 500 || h.Max != 500 {
		t.Fatalf("gathered c.ns = %+v", h)
	}
	if _, ok := m.Counters["telemetry.trace.dropped"]; ok {
		t.Fatal("the trace drop counter rides along only when tracing is armed")
	}
}

func TestMemTimelineAndRatios(t *testing.T) {
	s := New()
	for step := 1; step <= 3; step++ {
		s.RecordMemSample(MemSample{
			Step: step, RawBytes: 6400, HeldBytes: 1800,
			ByTech: []TechBytes{
				{Tech: "Binarize", RawBytes: 3200, HeldBytes: 100},
				{Tech: "DPR", RawBytes: 3200, HeldBytes: 1700},
			},
		})
	}
	last, ok := s.LastMemSample()
	if !ok || last.Step != 3 || last.RawBytes != 6400 || last.HeldBytes != 1800 || len(last.ByTech) != 2 {
		t.Fatalf("last sample = (%+v, %v)", last, ok)
	}
	v := s.Values()
	if v["stash.samples"] != 3 || v["mem.peak_held_bytes"] != 1800 || v["mem.peak_raw_bytes"] != 6400 {
		t.Fatalf("samples/peaks: %v", v)
	}
	// Cumulative over 3 samples: Binarize 9600/300 = 32x, DPR 9600/5100.
	if raw, held := v["stash.Binarize.raw_bytes"], v["stash.Binarize.held_bytes"]; raw != 9600 || held != 300 {
		t.Fatalf("Binarize raw %d held %d, want 9600/300 (32x)", raw, held)
	}
	if raw, held := v["stash.DPR.raw_bytes"], v["stash.DPR.held_bytes"]; raw != 9600 || held != 5100 {
		t.Fatalf("DPR raw %d held %d, want 9600/5100", raw, held)
	}
}

// BenchmarkTelemetryNoop is the zero-cost-default guard: the uninstrumented
// hot path pays only nil checks, so one iteration (a counter hit, a
// histogram observation and a span begin/end against nil instruments)
// should cost single-digit nanoseconds and zero allocations.
func BenchmarkTelemetryNoop(b *testing.B) {
	var s *Sink
	var c *Counter
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
		sp := s.Begin("cat", "name")
		sp.End()
	}
}

// BenchmarkTelemetryLive is the instrumented counterpart, for comparing the
// armed-instrument cost against the no-op path.
func BenchmarkTelemetryLive(b *testing.B) {
	s := New()
	c := s.Counter("bench.calls")
	h := s.Histogram("bench.ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}

// TestLastMemTotals: the totals accessor reads the newest sample's raw and
// held bytes without copying its rows, and reports no sample before the
// first (or on a nil sink).
func TestLastMemTotals(t *testing.T) {
	var nilSink *Sink
	if _, _, ok := nilSink.LastMemTotals(); ok {
		t.Fatal("nil sink cannot hold a memory sample")
	}
	s := New()
	if _, _, ok := s.LastMemTotals(); ok {
		t.Fatal("totals before the first sample")
	}
	for step := 1; step <= 2; step++ {
		s.RecordMemSample(MemSample{Step: step, RawBytes: int64(6400 * step), HeldBytes: int64(1800 * step),
			ByTech: []TechBytes{{Tech: "DPR", RawBytes: 6400, HeldBytes: 1800}}})
	}
	if raw, held, ok := s.LastMemTotals(); !ok || raw != 12800 || held != 3600 {
		t.Fatalf("totals = (%d, %d, %v), want (12800, 3600, true)", raw, held, ok)
	}
	if a := testing.AllocsPerRun(10, func() { s.LastMemTotals() }); a != 0 {
		t.Fatalf("LastMemTotals allocates %v times", a)
	}
}
