package encoding

import (
	"sync/atomic"
	"time"

	"gist/internal/telemetry"
)

// codecMetrics caches the instruments a codec reports into, resolved once
// per (sink, operation, technique) — the way parallel.poolMetrics caches
// the pool's — so an operation on a sink-carrying codec builds no names and
// takes no registry lock. One set lives on each sink (telemetry.Sink.Memo),
// as long as the sink. Instruments resolve lazily, the first time the codec
// reports into them, so a sink holds exactly the series it would hold if
// every report looked its instrument up by name.
type codecMetrics struct {
	tel      *telemetry.Sink
	counters [nCodecCounters]atomic.Pointer[telemetry.Counter]
	ops      [nCodecOps][numTechniques]atomic.Pointer[opMetrics]
}

// codecOp is a reported codec operation.
type codecOp uint8

const (
	opEncode codecOp = iota
	opDecode
	nCodecOps
)

var codecOpNames = [nCodecOps]string{"encode", "decode"}

// codecCounter names a counter that is not keyed by technique.
type codecCounter uint8

const (
	cChunks codecCounter = iota
	cFallbacks
	cCRCFailures
	cEncodeErrors
	cDecodeErrors
	nCodecCounters
)

var codecCounterNames = [nCodecCounters]string{
	cChunks:       "codec.chunks",
	cFallbacks:    "codec.encode.fallbacks",
	cCRCFailures:  "codec.crc.failures",
	cEncodeErrors: "codec.encode.errors",
	cDecodeErrors: "codec.decode.errors",
}

// opMetrics is one (operation, technique) row.
type opMetrics struct {
	name  string // "<op>.<technique>": the trace event name
	ns    *telemetry.Histogram
	calls *telemetry.Counter
	bytes atomic.Pointer[telemetry.Counter] // resolved on the first byte
}

var codecMetricsKey byte

// metrics returns the codec's instrument cache, nil without a sink.
func (cdc Codec) metrics() *codecMetrics {
	if cdc.Tel == nil {
		return nil
	}
	return cdc.Tel.Memo(&codecMetricsKey, newCodecMetrics).(*codecMetrics)
}

func newCodecMetrics(tel *telemetry.Sink) any { return &codecMetrics{tel: tel} }

// add adds d to counter k; a no-op without a sink. A racing resolver stores
// the same pointer: the sink hands out one instrument per name.
func (m *codecMetrics) add(k codecCounter, d int64) {
	if m == nil {
		return
	}
	c := m.counters[k].Load()
	if c == nil {
		c = m.tel.Counter(codecCounterNames[k])
		m.counters[k].Store(c)
	}
	c.Add(d)
}

// op returns the (operation, technique) row, resolving it on first use. An
// unregistered technique (a hostile blob's tag) gets an uncached row.
func (m *codecMetrics) op(op codecOp, tech Technique) *opMetrics {
	if tech < 0 || int(tech) >= len(m.ops[op]) {
		return m.newOp(op, tech)
	}
	p := &m.ops[op][tech]
	if om := p.Load(); om != nil {
		return om
	}
	om := m.newOp(op, tech)
	p.Store(om)
	return om
}

func (m *codecMetrics) newOp(op codecOp, tech Technique) *opMetrics {
	name := codecOpNames[op] + "." + tech.String()
	return &opMetrics{
		name:  name,
		ns:    m.tel.Histogram("codec." + name + ".ns"),
		calls: m.tel.Counter("codec." + name + ".calls"),
	}
}

// observe records one codec operation: latency histogram, call and byte
// counters (all keyed by technique), an error counter, and — when the
// sink has tracing armed — a complete trace event covering the call.
func (cdc Codec) observe(op codecOp, tech Technique, start time.Time, bytes int64, err error) {
	m := cdc.metrics()
	om := m.op(op, tech)
	om.ns.Observe(time.Since(start).Nanoseconds())
	om.calls.Inc()
	if bytes > 0 {
		c := om.bytes.Load()
		if c == nil {
			c = m.tel.Counter("codec." + om.name + ".bytes")
			om.bytes.Store(c)
		}
		c.Add(bytes)
	}
	if err != nil {
		m.add(cEncodeErrors+codecCounter(op), 1)
	}
	cdc.Tel.Complete("codec", om.name, start)
}
