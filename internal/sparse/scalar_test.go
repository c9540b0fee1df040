package sparse

import (
	"math"

	"gist/internal/floatenc"
)

// Retained scalar reference kernels: the original branchy element-at-a-time
// CSR encode/count/fill/decode loops, kept verbatim as the ground truth of
// the differential tests and the `scalar` legs of the Kernel benchmarks
// that `make bench-gate` compares against. Do not optimize these: their
// value is being obviously correct and frozen.

// They hold FP32 values, one exact float32 bit pattern per Values word.

// encodeCSRColsScalar is the original append-based EncodeCSRCols.
func encodeCSRColsScalar(xs []float32, cols int) *CSR {
	rows := (len(xs) + cols - 1) / cols
	c := &CSR{Rows: rows, Cols: cols, N: len(xs), RowPtr: make([]int32, rows+1)}
	nnz := 0
	for _, v := range xs {
		if v != 0 {
			nnz++
		}
	}
	c.ColIdx = make([]uint8, 0, nnz)
	c.Values = floatenc.Packed{Format: floatenc.FP32, Words: make([]uint32, 0, nnz)}
	for r := 0; r < rows; r++ {
		base := r * cols
		end := min(base+cols, len(xs))
		for i := base; i < end; i++ {
			if xs[i] != 0 {
				c.ColIdx = append(c.ColIdx, uint8(i-base))
				c.Values.Words = append(c.Values.Words, math.Float32bits(xs[i]))
			}
		}
		c.RowPtr[r+1] = int32(len(c.Values.Words))
	}
	c.Values.N = len(c.Values.Words)
	return c
}

// countRowNNZScalar is the original per-element CountRowNNZ.
func countRowNNZScalar(xs []float32, cols, r0, r1 int, counts []int32) {
	for r := r0; r < r1; r++ {
		base := r * cols
		end := min(base+cols, len(xs))
		n := int32(0)
		for i := base; i < end; i++ {
			if xs[i] != 0 {
				n++
			}
		}
		counts[r-r0] = n
	}
}

// fillRowsScalar is the original per-element FillRows.
func (c *CSR) fillRowsScalar(xs []float32, r0, r1 int) {
	for r := r0; r < r1; r++ {
		base := r * c.Cols
		end := min(base+c.Cols, len(xs))
		k := c.RowPtr[r]
		for i := base; i < end; i++ {
			if xs[i] != 0 {
				c.ColIdx[k] = uint8(i - base)
				c.Values.Words[k] = math.Float32bits(xs[i])
				k++
			}
		}
	}
}

// decodeRowsScalar is the original DecodeRows scatter, with dst indexed
// from row r0's first element as DecodeRows indexes it.
func (c *CSR) decodeRowsScalar(dst []float32, r0, r1 int) {
	lo := r0 * c.Cols
	clear(dst[:min(r1*c.Cols, c.N)-lo])
	for r := r0; r < r1; r++ {
		base := r*c.Cols - lo
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			dst[base+int(c.ColIdx[k])] = math.Float32frombits(c.Values.Words[k])
		}
	}
}
