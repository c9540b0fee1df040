// Package bufpool provides the size-class, lifetime-aware buffer pool the
// training runtime recycles its working set through. The memory planner
// (internal/liveness, internal/memplan) computes when every activation,
// gradient and decode target dies; this pool is the runtime half of that
// story: instead of allocating a fresh []float32 per tensor per step and
// leaving the garbage collector to discover the liveness the planner already
// knew, the executor returns each buffer at its last use — a feature map
// right after its last forward consumer, a decode target after its last
// backward reader — and the next layer, or the next step, re-serves it from
// a free list. Steady-state training then runs with a fixed working set and
// a near-zero allocation rate — the property cDMA (Rhu et al.) identifies as
// the difference between compression on paper and compression in the
// allocator — and Stats.PeakLiveBytes, the high-water mark of bytes
// requested, is what memplan.PlanDynamic predicts for the same graph.
//
// Buffers are grouped into power-of-two element-count size classes. A Get
// rounds the request up to its class, pops a free buffer (hit) or allocates
// one at full class capacity (miss), and always returns zeroed memory —
// exactly what tensor.New hands out, so pooled and unpooled execution are
// numerically indistinguishable. Recycle returns a buffer to its class.
// Double recycles and recycles of foreign buffers panic; under the race
// detector (internal/race) freed buffers are additionally poisoned and
// checked on reuse, so a use-after-recycle that scribbles on pooled memory
// is caught at the next Get instead of corrupting a training step.
package bufpool

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"gist/internal/race"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// minClassElems is the smallest size class. Requests below it share one
// class so tiny tensors (biases, batch-norm vectors) do not fragment the
// free lists.
const minClassElems = 64

// poison is the bit pattern freed buffers are filled with under the race
// detector: a quiet NaN, so any arithmetic on a recycled buffer propagates
// loudly, and a distinctive payload so the Get-side check can tell a
// use-after-recycle write from the pool's own fill.
const poison = math.MaxUint32 & 0x7fc0dead

// classIndex returns the size class of a request of n elements; class c
// holds buffers of capacity minClassElems<<c.
func classIndex(n int) int {
	if n <= minClassElems {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(uint(minClassElems)) + 1
}

// classElems returns the buffer capacity of class c.
func classElems(c int) int { return minClassElems << c }

// class is one size class: a LIFO free list (most recently recycled buffer
// is re-served first, the cache-friendly order) plus its cached instruments.
type class struct {
	free []*tensor.Tensor

	// wired marks the instruments as resolved against the current sink —
	// nil instruments are valid no-ops (sinkless pool), so a nil check
	// cannot double as the cache check.
	wired     bool
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	heldBytes *telemetry.Gauge
}

// Stats is a snapshot of a pool's aggregate counters.
type Stats struct {
	// Hits and Misses count Get calls served from a free list vs. freshly
	// allocated. A steady-state training loop should be ~100% hits.
	Hits, Misses int64
	// Recycles counts buffers returned to the pool.
	Recycles int64
	// HeldBytes is the capacity currently sitting in free lists.
	// InUseBytes is the capacity handed out and not yet recycled.
	HeldBytes, InUseBytes int64
	// LiveBytes is the bytes callers asked for and still hold — 4 per
	// requested element, before the round-up to class capacity — and
	// PeakLiveBytes its high-water mark: the runtime counterpart of
	// memplan.PlanDynamic over the pooled buffer classes.
	LiveBytes, PeakLiveBytes int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first Get.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Pool is a size-class free-list buffer pool. It is safe for concurrent use
// by any number of executors; the zero value is NOT usable — call New.
type Pool struct {
	mu      sync.Mutex
	classes []class
	// owned tracks every buffer the pool has ever handed out: true while it
	// sits in a free list, false while a caller holds it. It is both the
	// double-free guard (recycling a buffer already in the pool panics) and
	// the foreign-buffer guard (recycling a tensor the pool never served
	// panics), and it costs one map probe per Get/Recycle with zero
	// steady-state allocation.
	owned map[*tensor.Tensor]bool
	// byBase indexes every pool-served buffer by the address of its backing
	// array's first element, which is stable however the holder reslices
	// Data. RecycleSlice resolves slices through it instead of reading the
	// Tensor fields of checked-out buffers, which their holders mutate
	// without the pool's lock.
	byBase map[*float32]*tensor.Tensor

	hits, misses, recycles   atomic.Int64
	heldBytes, inUseBytes    atomic.Int64
	liveBytes, peakLiveBytes atomic.Int64 // written under mu, so the peak never lags

	tel      atomic.Pointer[telemetry.Sink]
	peakLive *telemetry.Gauge // bufpool.peak_live_bytes; guarded by mu
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		owned:  map[*tensor.Tensor]bool{},
		byBase: map[*float32]*tensor.Tensor{},
	}
}

// shared is the process-wide pool concurrent trainers recycle through by
// default, mirroring parallel.Shared() for the worker budget.
var sharedPool atomic.Pointer[Pool]

// Shared returns the process-wide pool, creating it on first use. Trainers
// that opt into pooling without providing their own pool share this one, so
// a buffer freed by one executor can serve another.
func Shared() *Pool {
	if p := sharedPool.Load(); p != nil {
		return p
	}
	p := New()
	if sharedPool.CompareAndSwap(nil, p) {
		return p
	}
	return sharedPool.Load()
}

// SetTelemetry wires the pool's per-class hit/miss counters and held-bytes
// gauges (bufpool.c<elems>.{hits,misses,held_bytes}) plus the aggregate
// bufpool.peak_live_bytes gauge into the sink. Passing nil disconnects.
// Safe to call concurrently with Get/Recycle.
func (p *Pool) SetTelemetry(s *telemetry.Sink) {
	p.tel.Store(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peakLive = s.Gauge("bufpool.peak_live_bytes")
	p.peakLive.SetMax(p.peakLiveBytes.Load())
	for c := range p.classes {
		p.classes[c].wired = false // re-resolved lazily against the new sink
		p.classes[c].hits = nil
		p.classes[c].misses = nil
		p.classes[c].heldBytes = nil
	}
}

// instruments returns class c's cached counters, resolving them against the
// current sink on first use. Caller holds p.mu.
func (p *Pool) instruments(c int) *class {
	cl := &p.classes[c]
	if !cl.wired {
		s := p.tel.Load() // nil sink yields valid no-op instruments
		prefix := fmt.Sprintf("bufpool.c%d.", classElems(c))
		cl.hits = s.Counter(prefix + "hits")
		cl.misses = s.Counter(prefix + "misses")
		cl.heldBytes = s.Gauge(prefix + "held_bytes")
		cl.wired = true
	}
	return cl
}

// grow ensures class index c exists. Caller holds p.mu.
func (p *Pool) grow(c int) {
	for len(p.classes) <= c {
		p.classes = append(p.classes, class{})
	}
}

// Get returns a zero-filled pooled tensor of the given shape, reusing a
// recycled buffer of the same size class when one is free. The tensor's
// Data has the exact element count of the shape (capacity may be larger).
// Get never returns a buffer that is still held by another caller.
func (p *Pool) Get(shape ...int) *tensor.Tensor {
	n := tensor.Shape(shape).NumElements()
	c := classIndex(n)
	cap := classElems(c)

	p.mu.Lock()
	p.grow(c)
	cl := p.instruments(c)
	var t *tensor.Tensor
	if k := len(cl.free); k > 0 {
		t = cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		p.owned[t] = false
		cl.hits.Inc()
		cl.heldBytes.Add(int64(-cap) * 4)
		p.hits.Add(1)
		p.heldBytes.Add(int64(-cap) * 4)
	} else {
		cl.misses.Inc()
		p.misses.Add(1)
	}
	p.inUseBytes.Add(int64(cap) * 4)
	if live := p.liveBytes.Add(int64(n) * 4); live > p.peakLiveBytes.Load() {
		p.peakLiveBytes.Store(live)
		p.peakLive.SetMax(live)
	}
	p.mu.Unlock()

	if t == nil {
		data := make([]float32, n, cap)
		t = &tensor.Tensor{
			Shape: tensor.Shape(shape).Clone(),
			Data:  data,
		}
		p.mu.Lock()
		p.owned[t] = false
		p.byBase[&data[:cap][0]] = t
		p.mu.Unlock()
		return t
	}
	if race.Enabled {
		checkPoison(t.Data[:cap])
	}
	t.Shape = append(t.Shape[:0], shape...)
	data := t.Data[:cap]
	clear(data[:n])
	t.Data = data[:n]
	return t
}

// Recycle returns a buffer obtained from Get to its free list. It panics on
// a nil tensor, a tensor the pool did not serve, or a second recycle of the
// same buffer — the bugs that silently alias two consumers onto one buffer
// if they go unnoticed.
func (p *Pool) Recycle(t *tensor.Tensor) {
	if t == nil || t.Data == nil {
		panic("bufpool: recycle of nil tensor")
	}
	c := classIndex(len(t.Data))
	cap := classElems(c)

	p.mu.Lock()
	defer p.mu.Unlock()
	inPool, known := p.owned[t]
	if !known {
		panic("bufpool: recycle of a tensor this pool did not serve")
	}
	if inPool {
		panic("bufpool: double recycle")
	}
	p.liveBytes.Add(int64(-len(t.Data)) * 4)
	t.Data = t.Data[:cap]
	if race.Enabled {
		// Poison while still exclusively held (under the lock), so the
		// buffer never appears in a free list half-filled.
		fillPoison(t.Data)
	}
	p.owned[t] = true
	cl := p.instruments(c)
	cl.free = append(cl.free, t)
	cl.heldBytes.Add(int64(cap) * 4)
	p.recycles.Add(1)
	p.heldBytes.Add(int64(cap) * 4)
	p.inUseBytes.Add(int64(-cap) * 4)
}

// GetSlice returns a zeroed []float32 of length n from the pool — the raw
// form of Get for scratch buffers that never become tensors (the codec's
// quantize scratch). Pair with RecycleSlice.
func (p *Pool) GetSlice(n int) []float32 {
	return p.Get(n).Data
}

// RecycleSlice returns a GetSlice buffer. The slice must be the one Get
// handed out (same backing array), at any length within its class.
func (p *Pool) RecycleSlice(s []float32) {
	var match *tensor.Tensor
	if len(s) > 0 {
		p.mu.Lock()
		match = p.byBase[&s[0]]
		p.mu.Unlock()
	}
	if match == nil {
		panic("bufpool: recycle of a slice this pool did not serve")
	}
	p.Recycle(match)
}

// Prewarm populates the free lists with one buffer per element count, so a
// training loop whose working set the planner already knows starts at a
// ~100% hit rate instead of missing through its first step. The executor
// feeds it the liveness analysis's buffer sizes.
func (p *Pool) Prewarm(elemCounts []int) {
	for _, n := range elemCounts {
		if n <= 0 {
			continue
		}
		p.Recycle(p.Get(n))
	}
}

// Stats returns a snapshot of the aggregate counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Recycles:   p.recycles.Load(),
		HeldBytes:  p.heldBytes.Load(),
		InUseBytes: p.inUseBytes.Load(),

		LiveBytes:     p.liveBytes.Load(),
		PeakLiveBytes: p.peakLiveBytes.Load(),
	}
}

// fillPoison marks a freed buffer (race builds only).
func fillPoison(s []float32) {
	v := math.Float32frombits(poison)
	for i := range s {
		s[i] = v
	}
}

// checkPoison panics if a freed buffer was written between Recycle and the
// next Get — a use-after-recycle in some consumer (race builds only).
func checkPoison(s []float32) {
	for i := range s {
		if math.Float32bits(s[i]) != poison {
			panic(fmt.Sprintf("bufpool: use after recycle: pooled buffer mutated at element %d while free", i))
		}
	}
}
