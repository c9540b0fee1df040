package encoding

import (
	"encoding/binary"
	"fmt"

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

func (dprTech) name() string     { return "DPR" }
func (dprTech) wireVersion() int { return 1 }

func (dprTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	e.Packed = cdc.encodePackedInto(e.Packed, as.Format, t.Data)
	return nil
}

func (dprTech) decodeInto(cdc Codec, out *tensor.Tensor, e *EncodedStash) error {
	if e.Packed == nil || e.Packed.N != len(out.Data) {
		return fmt.Errorf("%w: packed %d elements, shape %v", ErrShapeMismatch, packedN(e.Packed), e.Shape)
	}
	vpw, ok := packedValuesPerWord(e.Packed.Format)
	if !ok {
		return fmt.Errorf("%w: unknown packed format %d", ErrCorruptStash, int(e.Packed.Format))
	}
	if len(e.Packed.Words) != (e.Packed.N+vpw-1)/vpw {
		return fmt.Errorf("%w: %d packed words for %d %s values",
			ErrCorruptStash, len(e.Packed.Words), e.Packed.N, e.Packed.Format)
	}
	if ce, serial := cdc.serialChunks(len(out.Data)); serial {
		for lo := 0; lo < len(out.Data); lo += ce {
			e.Packed.DecodeRange(out.Data, lo, min(lo+ce, len(out.Data)))
		}
	} else {
		cdc.forChunks(len(out.Data), func(lo, hi int) {
			e.Packed.DecodeRange(out.Data, lo, hi)
		})
	}
	return nil
}

func (dprTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	p := e.Packed
	if p == nil {
		return l
	}
	l.n = p.N
	vpw, ok := packedValuesPerWord(p.Format)
	l.add(segment{u32: p.Words, cut: cutAligned, per: vpw})
	l.chunkable = ok && len(p.Words) == (p.N+vpw-1)/vpw
	return l
}

func (dprTech) marshalPayload(e *EncodedStash, out []byte) ([]byte, error) {
	if e.Packed == nil {
		return nil, fmt.Errorf("encoding: marshal: DPR stash without payload")
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(e.Packed.Format))
	out = binary.LittleEndian.AppendUint32(out, uint32(e.Packed.N))
	return appendSegment(out, segment{u32: e.Packed.Words}), nil
}

func (dprTech) unmarshalPayload(e *EncodedStash, r *stashReader) {
	f := floatenc.Format(r.u32())
	vpw, okFmt := packedValuesPerWord(f)
	if r.err == nil && !okFmt {
		r.fail("unknown packed format %d", int(f))
	}
	n := r.count("packed value", maxStashElems, 0)
	p := &floatenc.Packed{Format: f, N: n}
	if r.err == nil {
		if nw := (n + vpw - 1) / vpw; nw*4 > len(r.data)-r.off {
			r.fail("%d packed words exceed remaining bytes", nw)
		} else {
			p.Words = words32[uint32](r, nw)
		}
	}
	if r.err == nil {
		e.Packed = p
	}
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
