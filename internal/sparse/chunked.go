package sparse

import (
	"sync"

	"gist/internal/floatenc"
	"gist/internal/parallel"
)

// rowTask is one row-chunked CSR pass: the pass and every operand it reads,
// in one recycled object, so a dispatch through the pool puts nothing on the
// heap at any worker count.
type rowTask struct {
	pass      func(t *rowTask, r0, r1 int)
	c         *CSR
	xs        []float32
	minBits   uint32
	rows      int
	chunkRows int
}

var rowTasks = sync.Pool{New: func() any { return new(rowTask) }}

// Do runs the pass over row chunk ci.
func (t *rowTask) Do(ci int) {
	r0 := ci * t.chunkRows
	t.pass(t, r0, min(r0+t.chunkRows, t.rows))
}

// forRowChunks runs task's pass over every chunk of its rows on the pool,
// through a recycled copy of task.
func forRowChunks(p *parallel.Pool, task rowTask) {
	if task.rows <= 0 {
		return
	}
	if task.chunkRows <= 0 {
		task.chunkRows = task.rows
	}
	t := rowTasks.Get().(*rowTask)
	*t = task
	p.ForEach((t.rows+t.chunkRows-1)/t.chunkRows, t)
	*t = rowTask{}
	rowTasks.Put(t)
}

func countPass(t *rowTask, r0, r1 int) {
	CountRowNNZ(t.xs, t.c.Cols, r0, r1, t.c.RowPtr[r0+1:r1+1], t.minBits)
}

func fillPass(t *rowTask, r0, r1 int) { t.c.FillRows(t.xs, r0, r1) }

// EncodeCSRChunkedInto builds the narrow CSR of xs with its values packed
// at format f — for FP32 exactly the CSR EncodeCSR builds, byte for byte;
// for a reduced format the CSR of xs quantized to f (an element f flushes
// to zero is no non-zero), with no quantized copy of xs made — reusing c's
// backing arrays when capacity allows, row-chunk-parallel on the pool (nil
// or one worker runs the same passes serially). Rows are independent under
// the narrow reshape, so the builder runs a count pass (per-row non-zero
// counts across chunks), a cheap serial prefix sum over the row pointers
// (rows = n/256, tiny next to n), and a fill pass in which each chunk
// writes its precomputed ColIdx/Values segment. chunkRows is the number of
// matrix rows per chunk (<= 0: one chunk). The output does not depend on
// the worker count or chunkRows.
func EncodeCSRChunkedInto(c *CSR, xs []float32, f floatenc.Format, p *parallel.Pool, chunkRows int) {
	c.encode(xs, NarrowCols, f, p, chunkRows)
}

func (c *CSR) encode(xs []float32, cols int, f floatenc.Format, p *parallel.Pool, chunkRows int) {
	rows := (len(xs) + cols - 1) / cols
	c.Rows, c.Cols, c.N = rows, cols, len(xs)
	if cap(c.RowPtr) < rows+1 {
		c.RowPtr = make([]int32, rows+1)
	} else {
		c.RowPtr = c.RowPtr[:rows+1]
		c.RowPtr[0] = 0
	}
	forRowChunks(p, rowTask{pass: countPass, c: c, xs: xs, minBits: f.MinNonzeroBits(), rows: rows, chunkRows: chunkRows})
	for r := 0; r < rows; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	c.resizeNNZ(int(c.RowPtr[rows]), f)
	forRowChunks(p, rowTask{pass: fillPass, c: c, xs: xs, rows: rows, chunkRows: chunkRows})
}
