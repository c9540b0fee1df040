package encoding

import (
	"encoding/binary"
	"fmt"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// binarizeTech is the 1-bit positive-mask encoding (paper Section IV-A):
// the stashed ReLU output collapses to one sign bit per element, expanded
// back to a 0/1 indicator tensor on decode. Payload is the mask's 64-bit
// word array; chunks own whole words (chunk boundaries are 768-aligned).

type binarizeTech struct{}

func init() { registerTechnique(Binarize, binarizeTech{}) }

func (binarizeTech) name() string     { return "Binarize" }
func (binarizeTech) wireVersion() int { return 1 }

func (binarizeTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	e.Mask = cdc.fromPositiveInto(e.Mask, t.Data)
	return nil
}

func (binarizeTech) decodeInto(cdc Codec, out *tensor.Tensor, e *EncodedStash) error {
	if e.Mask == nil || e.Mask.Len() != len(out.Data) {
		return fmt.Errorf("%w: mask %d bits, shape %v", ErrShapeMismatch, maskBits(e.Mask), e.Shape)
	}
	if ce, serial := cdc.serialChunks(len(out.Data)); serial {
		for lo := 0; lo < len(out.Data); lo += ce {
			e.Mask.ExpandRange(out.Data, lo, min(lo+ce, len(out.Data)))
		}
	} else {
		cdc.forChunks(len(out.Data), func(lo, hi int) {
			e.Mask.ExpandRange(out.Data, lo, hi)
		})
	}
	return nil
}

func (binarizeTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	if e.Mask == nil {
		return l
	}
	l.n = e.Mask.Len()
	words := e.Mask.Words()
	l.add(segment{u64: words, cut: cutAligned, per: 64})
	l.chunkable = len(words) == (l.n+63)/64
	return l
}

func (binarizeTech) marshalPayload(e *EncodedStash, out []byte) ([]byte, error) {
	if e.Mask == nil {
		return nil, fmt.Errorf("encoding: marshal: Binarize stash without mask")
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(e.Mask.Len()))
	return appendSegment(out, segment{u64: e.Mask.Words()}), nil
}

func (binarizeTech) unmarshalPayload(e *EncodedStash, r *stashReader) {
	n := r.count("mask bit", maxStashElems, 0)
	words := r.u64s((n + 63) / 64)
	if r.err == nil {
		e.Mask = bitpack.MaskFromWords(n, words)
	}
}

func (binarizeTech) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return binarizeMaskBytes(elems)
}

func (binarizeTech) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// Extra mask write at encode...
	t += stream(enc)
	// ...minus the backward reads of the two FP32 maps that the 1-bit
	// mask replaces (the ReLU backward becomes lighter).
	t -= stream(dense-enc) / 2
	return t
}
