package encoding

import (
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// dprTech is delayed precision reduction (paper Section V): the stash is
// packed at FP16/FP10/FP8 after its last forward use and expanded back to
// FP32 before the backward use. Payload is the packed 32-bit word array;
// chunks own whole storage words (768 is a multiple of every
// values-per-word packing). DPR also serves as the dense-fallback
// container, holding raw FP32 words when the format is FP32.

type dprTech struct{}

func init() { registerTechnique(DPR, dprTech{}) }

func (dprTech) name() string { return "DPR" }

func (dprTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	e.Packed = cdc.encodePackedInto(e.Packed, as.Format, t.Data)
	return nil
}

func (dprTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	p := e.Packed
	if p == nil {
		return l
	}
	l.n = p.N
	l.addHead(int(p.Format))
	l.addHead(p.N)
	vpw, ok := packedValuesPerWord(p.Format)
	l.add(segment{u32: p.Words, cut: cutAligned, per: vpw})
	l.chunkable = ok && len(p.Words) == (p.N+vpw-1)/vpw
	return l
}

func (dprTech) unmarshalPayload(e *EncodedStash, r WireReader) WireReader {
	f, vpw := r.format()
	n := r.count("packed value", maxStashElems, 0)
	if words := (n + vpw - 1) / vpw; r.need(4 * words) {
		if e.Packed == nil {
			e.Packed = &floatenc.Packed{}
		}
		p := e.Packed
		p.Format, p.N, p.Words = f, n, resized(p.Words, words)
	}
	return r
}

func (dprTech) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return f.PackedBytes(elems)
}

func (dprTech) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// Quantize pass (read FP32, write packed) + decode pass.
	t += stream(dense + enc)
	t += stream(dense + enc)
	return t
}
