package sparse

import "gist/internal/parallel"

// EncodeCSRChunkedInto builds exactly the CSR that EncodeCSRInto would —
// same RowPtr, ColIdx and Values, byte for byte, c's backing arrays reused
// when capacity allows — but row-chunk-parallel on the pool. Rows are
// independent under the narrow reshape, so the builder runs a count pass
// (per-row non-zero counts across chunks), a cheap serial prefix sum over
// the row pointers (rows = n/256, tiny next to n), and a fill pass in which
// each chunk writes its precomputed ColIdx/Values segment. chunkRows is the
// number of matrix rows per chunk.
func EncodeCSRChunkedInto(c *CSR, xs []float32, p *parallel.Pool, chunkRows int) {
	cols := NarrowCols
	rows := (len(xs) + cols - 1) / cols
	if chunkRows <= 0 {
		chunkRows = rows
	}
	nChunks := 0
	if rows > 0 {
		nChunks = (rows + chunkRows - 1) / chunkRows
	}
	if p.Workers() <= 1 || nChunks <= 1 {
		EncodeCSRInto(c, xs)
		return
	}

	c.Rows, c.Cols, c.N = rows, cols, len(xs)
	if cap(c.RowPtr) < rows+1 {
		c.RowPtr = make([]int32, rows+1)
	} else {
		c.RowPtr = c.RowPtr[:rows+1]
		c.RowPtr[0] = 0
	}
	p.ForEach(nChunks, func(ci int) {
		r0 := ci * chunkRows
		r1 := min(r0+chunkRows, rows)
		CountRowNNZ(xs, cols, r0, r1, c.RowPtr[r0+1:r1+1])
	})
	for r := 0; r < rows; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	c.resizeNNZ(int(c.RowPtr[rows]))
	p.ForEach(nChunks, func(ci int) {
		r0 := ci * chunkRows
		r1 := min(r0+chunkRows, rows)
		c.FillRows(xs, r0, r1)
	})
}

// DecodeChunked expands the CSR to dense form like Decode, row-chunk-
// parallel on the pool. dst must have length N; if nil, a new slice is
// allocated. Output is identical to Decode: each chunk zeroes and scatters
// a disjoint dense span.
func (c *CSR) DecodeChunked(dst []float32, p *parallel.Pool, chunkRows int) []float32 {
	if dst == nil {
		dst = make([]float32, c.N)
	}
	if len(dst) != c.N {
		panic("sparse: Decode length mismatch")
	}
	if chunkRows <= 0 {
		chunkRows = c.Rows
	}
	nChunks := 0
	if c.Rows > 0 {
		nChunks = (c.Rows + chunkRows - 1) / chunkRows
	}
	if p.Workers() <= 1 || nChunks <= 1 {
		return c.Decode(dst)
	}
	p.ForEach(nChunks, func(ci int) {
		r0 := ci * chunkRows
		r1 := min(r0+chunkRows, c.Rows)
		c.DecodeRows(dst, r0, r1)
	})
	return dst
}
