// Package sparse implements the storage formats behind Gist's SSDC (Sparse
// Storage and Dense Compute) encoding. SSDC stashes a highly sparse ReLU
// output in a compressed sparse format between its forward and backward
// uses and decodes it back to dense FP32 just before the backward-pass
// convolution needs it, so compute stays dense while storage is sparse.
//
// The primary format is CSR with the paper's narrow value optimization: the
// flattened 2-D matrix is reshaped so it has at most 256 columns, which lets
// every column index fit in a single byte instead of the 4 bytes a generic
// cuSPARSE CSR uses. That moves the break-even sparsity for compression from
// 50% down to ~20%. ELL and COO are provided for the format-comparison
// ablation the paper ran before choosing CSR.
package sparse

import "fmt"

// NarrowCols is the column count the narrow value optimization reshapes to:
// the largest width whose column indices fit in one byte.
const NarrowCols = 256

// CSR is a compressed-sparse-row encoding of a dense float32 buffer that was
// reshaped to rows x cols (cols <= 256 under the narrow value optimization).
// RowPtr is the standard "extra meta array which is very small in size";
// ColIdx holds one byte per non-zero.
type CSR struct {
	Rows, Cols int
	N          int // original element count (may be < Rows*Cols in the last row)
	RowPtr     []int32
	ColIdx     []uint8
	Values     []float32
}

// EncodeCSR compresses xs using the narrow value optimization: the buffer is
// viewed as a matrix of NarrowCols columns (the final row may be partial).
func EncodeCSR(xs []float32) *CSR {
	return EncodeCSRCols(xs, NarrowCols)
}

// EncodeCSRCols compresses xs viewed as a matrix with the given column
// count. cols must be in (0, 256] so that column indices fit in one byte.
//
// Word-parallel: a branch-free count pass sizes the arrays exactly, then
// each row gathers its non-zeros through the 64-bit mask kernel
// (gatherRow). Output is identical to encodeCSRColsScalar field for field.
func EncodeCSRCols(xs []float32, cols int) *CSR {
	if cols <= 0 || cols > 256 {
		panic(fmt.Sprintf("sparse: cols %d outside (0,256]", cols))
	}
	rows := (len(xs) + cols - 1) / cols
	c := &CSR{Rows: rows, Cols: cols, N: len(xs), RowPtr: make([]int32, rows+1)}
	nnz := countNonzeros(xs)
	c.ColIdx = make([]uint8, nnz)
	c.Values = make([]float32, nnz)
	k := 0
	for r := 0; r < rows; r++ {
		base := r * cols
		end := min(base+cols, len(xs))
		k = gatherRow(c.ColIdx, c.Values, k, xs, base, end)
		c.RowPtr[r+1] = int32(k)
	}
	return c
}

// EncodeCSRInto builds exactly the CSR EncodeCSR would, in place, reusing
// c's RowPtr/ColIdx/Values backing arrays when their capacity allows — the
// pooled encode path rebuilds each layer's stash into a persistent
// container instead of allocating three arrays per step.
func EncodeCSRInto(c *CSR, xs []float32) {
	cols := NarrowCols
	rows := (len(xs) + cols - 1) / cols
	c.Rows, c.Cols, c.N = rows, cols, len(xs)
	if cap(c.RowPtr) < rows+1 {
		c.RowPtr = make([]int32, rows+1)
	} else {
		c.RowPtr = c.RowPtr[:rows+1]
		c.RowPtr[0] = 0
	}
	c.resizeNNZ(countNonzeros(xs))
	k := 0
	for r := 0; r < rows; r++ {
		base := r * cols
		end := min(base+cols, len(xs))
		k = gatherRow(c.ColIdx, c.Values, k, xs, base, end)
		c.RowPtr[r+1] = int32(k)
	}
}

// resizeNNZ sets ColIdx and Values to length nnz for the in-place encoders,
// reusing their backing arrays when capacity allows. A short array is
// regrown with a quarter of slack (never past c.N, which bounds nnz): ReLU
// sparsity drifts by a few elements per step, and growing to exactly nnz
// re-allocated both arrays at every new maximum. Lengths — and with them
// Bytes() and the wire form — stay exactly what EncodeCSR produces.
func (c *CSR) resizeNNZ(nnz int) {
	grown := min(c.N, nnz+nnz/4)
	if cap(c.ColIdx) < nnz {
		c.ColIdx = make([]uint8, nnz, grown)
	} else {
		c.ColIdx = c.ColIdx[:nnz]
	}
	if cap(c.Values) < nnz {
		c.Values = make([]float32, nnz, grown)
	} else {
		c.Values = c.Values[:nnz]
	}
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.Values) }

// Validate checks the structural invariants every encoder-produced CSR
// holds: consistent dimensions, a monotone row-pointer array bracketing the
// index/value arrays exactly, and in-range column indices. Decoding a CSR
// that fails Validate would index out of bounds, so the runtime decoder
// (which may be handed a corrupted or deserialized stash) calls this first
// and surfaces a typed error instead of a panic.
func (c *CSR) Validate() error {
	if c.Cols <= 0 || c.Cols > 256 {
		return fmt.Errorf("sparse: cols %d outside (0,256]", c.Cols)
	}
	if c.N < 0 || c.Rows != (c.N+c.Cols-1)/c.Cols {
		return fmt.Errorf("sparse: %d rows of %d cols cannot cover %d elements", c.Rows, c.Cols, c.N)
	}
	if len(c.RowPtr) != c.Rows+1 {
		return fmt.Errorf("sparse: %d row pointers for %d rows", len(c.RowPtr), c.Rows)
	}
	if len(c.ColIdx) != len(c.Values) {
		return fmt.Errorf("sparse: %d column indices vs %d values", len(c.ColIdx), len(c.Values))
	}
	if c.RowPtr[0] != 0 || int(c.RowPtr[c.Rows]) != len(c.Values) {
		return fmt.Errorf("sparse: row pointers span [%d,%d], want [0,%d]",
			c.RowPtr[0], c.RowPtr[c.Rows], len(c.Values))
	}
	for r := 0; r < c.Rows; r++ {
		if c.RowPtr[r] > c.RowPtr[r+1] {
			return fmt.Errorf("sparse: row pointer %d decreases (%d > %d)", r, c.RowPtr[r], c.RowPtr[r+1])
		}
		base, limit := r*c.Cols, c.Cols
		if last := c.N - base; last < limit {
			limit = last // partial final row
		}
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			if int(c.ColIdx[k]) >= limit {
				return fmt.Errorf("sparse: column index %d in row %d exceeds row width %d",
					c.ColIdx[k], r, limit)
			}
		}
	}
	return nil
}

// CountRowNNZ is the chunk-range count kernel of the parallel CSR builder:
// counts[j] receives the non-zero count of row r0+j of xs viewed as a
// matrix with the given column count. Chunks own disjoint row ranges.
//
// Word-parallel: each row sums the branch-free non-zero predicate
// (countNonzeros); identical counts to countRowNNZScalar.
func CountRowNNZ(xs []float32, cols, r0, r1 int, counts []int32) {
	for r := r0; r < r1; r++ {
		base := r * cols
		end := min(base+cols, len(xs))
		counts[r-r0] = int32(countNonzeros(xs[base:end]))
	}
}

// FillRows is the chunk-range fill kernel of the parallel CSR builder: it
// writes the ColIdx/Values segments of rows [r0, r1), whose destination
// offsets c.RowPtr must already hold (after the builder's prefix sum).
// Chunks own disjoint row ranges and therefore disjoint array segments.
//
// Word-parallel: each row gathers through the 64-bit mask kernel
// (gatherRow); identical output to fillRowsScalar.
func (c *CSR) FillRows(xs []float32, r0, r1 int) {
	for r := r0; r < r1; r++ {
		base := r * c.Cols
		end := min(base+c.Cols, len(xs))
		gatherRow(c.ColIdx, c.Values, int(c.RowPtr[r]), xs, base, end)
	}
}

// DecodeRows is the chunk-range scatter kernel: it zeroes the dense span
// covered by rows [r0, r1) and scatters those rows' non-zeros into it.
// Chunks own disjoint row ranges and therefore disjoint dst spans.
func (c *CSR) DecodeRows(dst []float32, r0, r1 int) {
	lo := r0 * c.Cols
	hi := min(r1*c.Cols, c.N)
	clear(dst[lo:hi])
	for r := r0; r < r1; r++ {
		base := r * c.Cols
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			dst[base+int(c.ColIdx[k])] = c.Values[k]
		}
	}
}

// Decode expands the CSR back to its dense form. dst must have length N; if
// nil, a new slice is allocated. Decoding is exact: SSDC is lossless.
func (c *CSR) Decode(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, c.N)
	}
	if len(dst) != c.N {
		panic("sparse: Decode length mismatch")
	}
	clear(dst)
	for r := 0; r < c.Rows; r++ {
		base := r * c.Cols
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			dst[base+int(c.ColIdx[k])] = c.Values[k]
		}
	}
	return dst
}

// Bytes returns the storage footprint: 4 bytes per value, 1 byte per column
// index, 4 bytes per row pointer.
func (c *CSR) Bytes() int64 {
	return int64(len(c.Values))*4 + int64(len(c.ColIdx)) + int64(len(c.RowPtr))*4
}

// ValueBytes returns the bytes used by the non-zero value array alone. DPR
// layered over SSDC compresses only this array (the meta arrays affect
// control flow and stay exact).
func (c *CSR) ValueBytes() int64 { return int64(len(c.Values)) * 4 }

// MetaBytes returns the bytes used by the index arrays (ColIdx + RowPtr).
func (c *CSR) MetaBytes() int64 { return c.Bytes() - c.ValueBytes() }

// CompressionRatio returns dense FP32 bytes divided by encoded bytes.
func (c *CSR) CompressionRatio() float64 {
	return float64(int64(c.N)*4) / float64(c.Bytes())
}

// CSRBytesModel predicts the CSR footprint of a buffer with n elements and
// the given zero fraction, under the narrow value optimization. The memory
// planner uses this to size SSDC-encoded stashes without materializing data.
func CSRBytesModel(n int, sparsity float64) int64 {
	if sparsity < 0 {
		sparsity = 0
	}
	if sparsity > 1 {
		sparsity = 1
	}
	nnz := int64(float64(n)*(1-sparsity) + 0.5)
	rows := int64((n + NarrowCols - 1) / NarrowCols)
	return nnz*4 + nnz + (rows+1)*4
}

// CSRWideBytesModel predicts the footprint of a conventional (cuSPARSE-
// style) CSR with 4-byte column indices over an n-element buffer flattened
// to the given column count. Used by the narrow-value ablation: with 4-byte
// indices compression only wins above 50% sparsity.
func CSRWideBytesModel(n, cols int, sparsity float64) int64 {
	if sparsity < 0 {
		sparsity = 0
	}
	if sparsity > 1 {
		sparsity = 1
	}
	nnz := int64(float64(n)*(1-sparsity) + 0.5)
	rows := int64((n + cols - 1) / cols)
	return nnz*4 + nnz*4 + (rows+1)*4
}

// BreakEvenSparsity returns the minimum zero fraction at which the given
// bytes-per-nonzero of index metadata still compresses an n-element FP32
// buffer. For narrow CSR (1 byte/index) this is ~20%; for wide CSR (4
// bytes/index) it is ~50% — the paper's motivation for the optimization.
func BreakEvenSparsity(indexBytesPerNNZ float64) float64 {
	// dense = 4n; encoded ≈ nnz*(4+b) with nnz = (1-s)n.
	// encoded < dense  ⇔  (1-s)(4+b) < 4  ⇔  s > 1 - 4/(4+b).
	return 1 - 4/(4+indexBytesPerNNZ)
}
