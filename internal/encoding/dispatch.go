package encoding

import (
	"sync"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/telemetry"
)

// The codec's one chunk dispatch. Every chunk kernel — mask build and
// expand, DPR pack and unpack, the ZVC passes, the seal/verify chunk
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
}

var chunkTasks = sync.Pool{New: func() any { return new(chunkTask) }}

// newChunkTask takes a recycled task for kernel over n elements in chunks
// of ce.
func newChunkTask(kernel func(*chunkTask, int), n, ce int) *chunkTask {
	t := chunkTasks.Get().(*chunkTask)
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
	chunkTasks.Put(t)
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

func expandMask(t *chunkTask, c int) {
	lo, hi := t.span(c)
	t.mask.ExpandRange(t.dst, lo, hi)
}

func packRange(t *chunkTask, c int) {
	lo, hi := t.span(c)
	t.packed.EncodeRange(t.src, lo, hi)
}

func unpackRange(t *chunkTask, c int) {
	lo, hi := t.span(c)
	t.packed.DecodeRange(t.dst, lo, hi)
}
