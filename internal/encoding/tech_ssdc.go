package encoding

import (
	"gist/internal/floatenc"
	"gist/internal/sparse"
	"gist/internal/tensor"
)

// ssdcTech is the sparse storage / dense compute encoding (paper Section
// IV-B): the stash lives in narrow CSR between its uses, with the value
// array held packed at the DPR format (FP32: the exact values). Chunks
// cover whole 256-column rows; the ColIdx/value-word arrays are chunked by
// proportional index spans so the layout never depends on (possibly
// corrupted) RowPtr contents.

type ssdcTech struct{}

func init() { registerTechnique(SSDC, ssdcTech{}) }

func (ssdcTech) name() string { return "SSDC" }

func (ssdcTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	// Sparse storage of the map as the DPR format quantizes it: the row
	// counts leave out what the format flushes to zero, and the row fill
	// packs each value as it compacts it.
	if e.CSR == nil {
		e.CSR = &sparse.CSR{}
	}
	sparse.EncodeCSRChunkedInto(e.CSR, t.Data, as.Format, cdc.pool(), cdc.chunkElems()/sparse.NarrowCols)
	// The held bytes are the planner's ssdcBytes for this nonzero count:
	// the cost guard compares them with the dense DPR alternative.
	if dense := as.Format.PackedBytes(len(t.Data)); e.CSR.Bytes() >= dense {
		// A static error, not fmt.Errorf with the sizes: the adaptive
		// encoder hits this on every step a stash stays dense, and the
		// pooled hot path cannot afford an allocation per fallback.
		return errCSRLargerThanDense
	}
	return nil
}

// layout: RowPtr by row range (chunk 0 owning the constant leading zero),
// ColIdx and the value words by proportional index spans. An empty CSR is not
// chunkable: its RowPtr still holds the leading zero, which no chunk of a
// zero-chunk layout would hash.
func (ssdcTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	csr := e.CSR
	if csr == nil {
		return l
	}
	cols, n := csr.Cols, csr.N
	l.n = n
	l.addHead(int(csr.Values.Format))
	l.addHead(n)
	l.addDerivedHead(csr.Rows)
	l.addHead(cols)
	l.addHead(csr.Values.N)
	l.add(segment{i32: csr.RowPtr, cut: cutRows, per: cols})
	l.add(segment{u8: csr.ColIdx, cut: cutSpan})
	l.add(segment{u32: csr.Values.Words, cut: cutSpan})
	if cols <= 0 || ce%cols != 0 || n <= 0 {
		return l
	}
	rows := (n + cols - 1) / cols
	l.chunkable = csr.Rows == rows && len(csr.RowPtr) == rows+1 && len(csr.ColIdx) == csr.Values.N
	return l
}

// unmarshalPayload: the wire carries no row count; it is ⌈N/Cols⌉.
func (ssdcTech) unmarshalPayload(e *EncodedStash, r WireReader) WireReader {
	f, vpw := r.format()
	n := r.count("element", maxStashElems, 0)
	cols := int(r.U32())
	if r.err == nil && (cols <= 0 || cols > 256) {
		r.fail("CSR cols %d outside (0,256]", cols)
	}
	nnz := r.count("non-zero", maxStashElems, 2)
	rows, words := 0, (nnz+vpw-1)/vpw
	if r.err == nil {
		rows = (n + cols - 1) / cols
	}
	if r.need(4*(rows+1) + nnz + 4*words) {
		if e.CSR == nil {
			e.CSR = &sparse.CSR{}
		}
		c := e.CSR
		c.Rows, c.Cols, c.N = rows, cols, n
		c.RowPtr, c.ColIdx = resized(c.RowPtr, rows+1), resized(c.ColIdx, nnz)
		c.Values.Format, c.Values.N, c.Values.Words = f, nnz, resized(c.Values.Words, words)
	}
	return r
}

func (ssdcTech) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return ssdcBytes(elems, sparsity, f)
}

func (ssdcTech) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// A dense→CSR pass at encode (read dense, write sparse) and a
	// CSR→dense pass at decode, via cuSPARSE-style kernels; modeled as
	// three streaming passes over the dense size.
	t += float64(3 * stream(dense))
	// Decode writes the dense staging buffer.
	t += stream(dense)
	return t
}
