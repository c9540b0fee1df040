package encoding

import (
	"sync"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/telemetry"
)

// The codec's one chunk dispatch. Every chunk kernel — mask build, DPR
// pack, the ZVC passes, the stored-stash decode, the seal/verify chunk
// hashes — runs as a chunkTask through
// parallel.Pool.ForEach, at every worker count and chunk count, one worker
// and one chunk included. A task carries the kernel (a plain function, never
// a closure) and every operand the kernel reads, and is recycled, so a
// dispatch puts nothing on the heap and no kernel needs a serial twin.

// chunkTask is one chunk-parallel kernel call over chunk i of n elements in
// chunks of ce (span).
type chunkTask struct {
	kernel func(t *chunkTask, i int)
	n, ce  int
	// trace, when set, wraps each chunk in a "codec"/"chunk" span.
	trace *telemetry.Sink

	// Operands: each kernel reads the ones it names.
	src, dst []float32
	format   floatenc.Format
	mask     *bitpack.BitMask
	packed   *floatenc.Packed
	layout   payloadLayout
	pieces   []uint32
	stored   StoredStash
}

var chunkTasks freeList[chunkTask]

// freeList recycles objects like a sync.Pool that a garbage collection
// never empties: it keeps every object put back, so it holds as many as
// were ever out at once, and a step after a collection takes them from
// it instead of from the heap.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get takes an object, new and zero when none is spare.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items = l.items[:n-1]
	return x
}

// put gives x back.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// newChunkTask takes a recycled task for kernel over n elements in chunks
// of ce.
func newChunkTask(kernel func(*chunkTask, int), n, ce int) *chunkTask {
	t := chunkTasks.get()
	t.kernel, t.n, t.ce = kernel, n, ce
	return t
}

// span returns the element range [lo, hi) of chunk c.
func (t *chunkTask) span(c int) (lo, hi int) {
	lo = c * t.ce
	return lo, min(lo+t.ce, t.n)
}

// Do runs the kernel on chunk i; it makes a chunkTask a parallel.Task.
func (t *chunkTask) Do(i int) {
	if t.trace == nil {
		t.kernel(t, i)
		return
	}
	// Per-chunk worker spans (tracing only): each lands on its own track
	// exactly while chunks overlap, so the trace shows pool utilization.
	// The arguments outlive the call in the trace buffer.
	lo, hi := t.span(i)
	args := []telemetry.Arg{telemetry.Int("lo", int64(lo)), telemetry.Int("hi", int64(hi))}
	sp := t.trace.Begin("codec", "chunk", args...)
	t.kernel(t, i)
	sp.End()
}

// run dispatches t over indices [0, count) on the codec's pool and
// recycles it.
func (cdc Codec) run(count int, t *chunkTask) {
	cdc.pool().ForEach(count, t)
	*t = chunkTask{}
	chunkTasks.put(t)
}

// forChunks runs t over every chunk of its n elements, counting them on
// codec.chunks, with per-chunk spans when the sink traces a payload of more
// than one chunk.
func (cdc Codec) forChunks(t *chunkTask) {
	nc := (t.n + t.ce - 1) / t.ce
	if nc > 0 {
		cdc.metrics().add(cChunks, int64(nc))
	}
	if nc > 1 && cdc.Tel.TracingEnabled() {
		t.trace = cdc.Tel
	}
	cdc.run(nc, t)
}

// elemTask takes a task for an element kernel over n elements in the
// codec's own chunk size.
func (cdc Codec) elemTask(kernel func(*chunkTask, int), n int) *chunkTask {
	return newChunkTask(kernel, n, cdc.chunkElems())
}

// The element kernels shared by several techniques.

func fillPositive(t *chunkTask, c int) {
	lo, hi := t.span(c)
	t.mask.FillPositiveRange(t.src[lo:], lo, hi)
}

func packRange(t *chunkTask, c int) {
	lo, hi := t.span(c)
	t.packed.EncodeRange(t.src, lo, hi)
}
