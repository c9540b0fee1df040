// Package sparse implements the storage formats behind Gist's SSDC (Sparse
// Storage and Dense Compute) encoding. SSDC stashes a highly sparse ReLU
// output in a compressed sparse format between its forward and backward
// uses and decodes it back to dense FP32 just before the backward-pass
// convolution needs it, so compute stays dense while storage is sparse.
//
// The format is CSR with the paper's narrow value optimization: the
// flattened 2-D matrix is reshaped so it has at most 256 columns, which lets
// every column index fit in a single byte instead of the 4 bytes a generic
// cuSPARSE CSR uses. That moves the break-even sparsity for compression from
// 50% down to ~20%.
package sparse

import (
	"fmt"

	"gist/internal/floatenc"
)

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
	// Values holds the non-zeros in row order, packed at its DPR format —
	// SSDC's value array reduced in place (paper §IV-B). At FP32 each word
	// holds one value's exact bits.
	Values floatenc.Packed
}

// EncodeCSR compresses xs using the narrow value optimization: the buffer is
// viewed as a matrix of NarrowCols columns (the final row may be partial).
func EncodeCSR(xs []float32) *CSR {
	return EncodeCSRCols(xs, NarrowCols)
}

// EncodeCSRCols compresses xs, with FP32 values, viewed as a matrix with
// the given column count. cols must be in (0, 256] so that column indices
// fit in one byte. It is the chunked builder run serially, as one chunk.
func EncodeCSRCols(xs []float32, cols int) *CSR {
	if cols <= 0 || cols > 256 {
		panic(fmt.Sprintf("sparse: cols %d outside (0,256]", cols))
	}
	c := &CSR{}
	c.encode(xs, cols, floatenc.FP32, nil, 0)
	return c
}

// EncodeCSRInto builds exactly the CSR EncodeCSR would, in place, reusing
// c's RowPtr/ColIdx/Values backing arrays when their capacity allows — the
// pooled encode path rebuilds each layer's stash into a persistent
// container instead of allocating three arrays per step. It is the
// chunked builder run serially, as one chunk.
func EncodeCSRInto(c *CSR, xs []float32) { EncodeCSRChunkedInto(c, xs, floatenc.FP32, nil, 0) }

// resizeNNZ sets ColIdx and Values to nnz entries, Values at format f with
// its words zeroed, reusing the backing arrays when capacity allows. A
// short array is regrown with floatenc.SlackCap's slack (c.N bounds nnz).
// Lengths — and with them Bytes() and the wire form — are exact.
func (c *CSR) resizeNNZ(nnz int, f floatenc.Format) {
	if cap(c.ColIdx) < nnz {
		c.ColIdx = make([]uint8, nnz, floatenc.SlackCap(nnz, c.N))
	} else {
		c.ColIdx = c.ColIdx[:nnz]
	}
	c.Values.ResetCompacted(f, nnz, c.N)
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return c.Values.N }

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
	if err := c.Values.Check(); err != nil {
		return fmt.Errorf("sparse: values: %w", err)
	}
	if len(c.ColIdx) != c.Values.N {
		return fmt.Errorf("sparse: %d column indices vs %d values", len(c.ColIdx), c.Values.N)
	}
	if c.RowPtr[0] != 0 || int(c.RowPtr[c.Rows]) != c.Values.N {
		return fmt.Errorf("sparse: row pointers span [%d,%d], want [0,%d]",
			c.RowPtr[0], c.RowPtr[c.Rows], c.Values.N)
	}
	for r := 0; r < c.Rows; r++ {
		base, limit := r*c.Cols, c.Cols
		if last := c.N - base; last < limit {
			limit = last // partial final row
		}
		if c.RowPtr[r] > c.RowPtr[r+1] || c.RowPtr[r+1]-c.RowPtr[r] > int32(limit) || int(c.RowPtr[r+1]) > c.Values.N {
			return fmt.Errorf("sparse: row %d spans pointers [%d,%d] over %d columns",
				r, c.RowPtr[r], c.RowPtr[r+1], limit)
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
// matrix with the given column count, an element counting as non-zero when
// its magnitude bits reach minBits (the values format's MinNonzeroBits, so
// a value the format flushes to zero is not counted). Chunks own disjoint
// row ranges.
//
// Word-parallel: each row sums the branch-free non-zero predicate
// (countNonzeros); identical counts to countRowNNZScalar at minBits 1.
func CountRowNNZ(xs []float32, cols, r0, r1 int, counts []int32, minBits uint32) {
	for r := r0; r < r1; r++ {
		base := r * cols
		end := min(base+cols, len(xs))
		counts[r-r0] = int32(countNonzeros(xs[base:end], minBits))
	}
}

// FillRows is the chunk-range fill kernel of the parallel CSR builder: it
// writes the ColIdx/Values segments of rows [r0, r1), whose destination
// offsets c.RowPtr must already hold (after the builder's prefix sum), and
// whose Values words are zero. Each row's non-zeros are gathered on the
// stack and packed at the Values format, so a value is quantized exactly
// once, as it is stored. Chunks own disjoint row ranges, hence disjoint
// ColIdx segments; the ≤2 Values words a chunk shares with its neighbours
// (its value offset RowPtr[r0] need not be word-aligned) are merged by the
// Packer.
//
// Word-parallel: each row gathers through the 64-bit mask kernel
// (gatherRow); identical output to fillRowsScalar at FP32.
func (c *CSR) FillRows(xs []float32, r0, r1 int) {
	minBits := c.Values.Format.MinNonzeroBits()
	w := c.Values.PackerAt(int(c.RowPtr[r0]))
	var vals [NarrowCols]float32
	for r := r0; r < r1; r++ {
		base := r * c.Cols
		end := min(base+c.Cols, len(xs))
		n := gatherRow(c.ColIdx[c.RowPtr[r]:], vals[:], xs, base, end, minBits)
		w.Append(vals[:n])
	}
	w.Flush()
}

// DecodeRows is the row-range scatter kernel: it zeroes the dense span
// covered by rows [r0, r1), which dst holds from row r0's first element on,
// and scatters those rows' non-zeros into it, each row's values unpacked on
// the stack by the floatenc word kernel. Callers decoding in parallel hand
// it disjoint row ranges and therefore disjoint dst spans.
func (c *CSR) DecodeRows(dst []float32, r0, r1 int) {
	lo := r0 * c.Cols
	dst = dst[:min(r1*c.Cols, c.N)-lo]
	clear(dst)
	var vals [NarrowCols]float32
	for r := r0; r < r1; r++ {
		k0, k1 := int(c.RowPtr[r]), int(c.RowPtr[r+1])
		row := vals[:k1-k0]
		c.Values.DecodeAt(row, k0)
		base := r*c.Cols - lo
		for j, col := range c.ColIdx[k0:k1] {
			dst[base+int(col)] = row[j]
		}
	}
}

// Decode expands the CSR back to its dense form. dst must have length N; if
// nil, a new slice is allocated. Decoding is exact: SSDC is lossless. It is
// DecodeRows over every row, serially.
func (c *CSR) Decode(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, c.N)
	}
	if len(dst) != c.N {
		panic("sparse: Decode length mismatch")
	}
	c.DecodeRows(dst, 0, c.Rows)
	return dst
}

// Bytes returns the storage footprint: the packed value words, 1 byte per
// column index, 4 bytes per row pointer.
func (c *CSR) Bytes() int64 {
	return c.Values.Bytes() + int64(len(c.ColIdx)) + int64(len(c.RowPtr))*4
}

// ValueBytes returns the bytes used by the non-zero value array alone. DPR
// layered over SSDC compresses only this array (the meta arrays affect
// control flow and stay exact).
func (c *CSR) ValueBytes() int64 { return c.Values.Bytes() }

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
	nnz := int64(float64(float64(n)*(1-sparsity)) + 0.5)
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
	nnz := int64(float64(float64(n)*(1-sparsity)) + 0.5)
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
