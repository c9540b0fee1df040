package encoding

import (
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// binarizeTech is the 1-bit positive-mask encoding (paper Section IV-A):
// the stashed ReLU output collapses to one sign bit per element, expanded
// back to a 0/1 indicator tensor on decode; the executor's ReLU reads the
// mask itself, through Codec.OpenStored's checks, and never decodes it.
// Payload is the mask's 64-bit word array; chunks own whole words (chunk
// boundaries are 768-aligned).

type binarizeTech struct{}

func init() { registerTechnique(Binarize, binarizeTech{}) }

func (binarizeTech) name() string { return "Binarize" }

func (binarizeTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	e.Mask = cdc.fromPositiveInto(e.Mask, t.Data)
	return nil
}

func (binarizeTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	if e.Mask == nil {
		return l
	}
	l.n = e.Mask.Len()
	l.addHead(l.n)
	words := e.Mask.Words()
	l.add(segment{u64: words, cut: cutAligned, per: 64})
	l.chunkable = len(words) == (l.n+63)/64
	return l
}

func (binarizeTech) unmarshalPayload(e *EncodedStash, r WireReader) WireReader {
	n := r.count("mask bit", maxStashElems, 0)
	if r.need(8 * ((n + 63) / 64)) {
		e.Mask = resetMask(e.Mask, n)
	}
	return r
}

func (binarizeTech) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return binarizeMaskBytes(elems)
}

func (binarizeTech) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// Extra mask write at encode...
	t += stream(enc)
	// ...minus the backward reads of the two FP32 maps that the 1-bit
	// mask replaces (the ReLU backward becomes lighter).
	t -= float64(stream(dense-enc) / 2)
	return t
}
