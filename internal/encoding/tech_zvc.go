package encoding

import (
	"encoding/binary"
	"fmt"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// zvcTech is zero-value compression (the cDMA-style encoding): a 1-bit
// nonzero mask plus the nonzero values compacted in mask order. Unlike
// Binarize the values survive, so ZVC is lossless at FP32 and applies to
// any sparse stash regardless of what reads it — including the
// dense-consuming convolutions SSDC targets, at a lower metadata cost than
// CSR when rows are dense enough. With DPR layered on, the data is
// quantized first (flush-to-zero widens the mask's zero set) and the cost
// guard credits the packed width of the value array, mirroring SSDC.
//
// The mask chunks by 64-bit word ranges (768-aligned boundaries); the
// value array chunks by proportional index spans — like SSDC's
// ColIdx/Values — so the chunk layout never depends on the (possibly
// corrupted) mask contents and FlipBit attribution stays exact.

// ZVCPayload is the held ZVC representation.
type ZVCPayload struct {
	// Mask has bit i set iff element i is nonzero (-0 canonicalizes to
	// +0, matching the scalar != 0 predicate).
	Mask *bitpack.BitMask
	// Values holds the nonzero values in index order, FP32-width (already
	// DPR-quantized when a format is layered on).
	Values []float32
}

// Bytes is the payload's storage footprint.
func (z *ZVCPayload) Bytes() int64 {
	return z.Mask.Bytes() + int64(len(z.Values))*4
}

type zvcTech struct{}

func init() { registerTechnique(ZVC, zvcTech{}) }

func (zvcTech) name() string     { return "ZVC" }
func (zvcTech) wireVersion() int { return 2 }

func (zvcTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	// Quantize first when DPR is layered on, exactly as SSDC does: the
	// mask is built over the quantized data, so flushed-to-zero values
	// drop out of the payload entirely.
	data := t.Data
	pooledScratch := false
	if as.Format != floatenc.FP32 {
		data = cdc.quantizedCopy(as.Format, t.Data)
		pooledScratch = cdc.Buf != nil
	}
	if e.ZVC == nil {
		e.ZVC = &ZVCPayload{}
	}
	z := e.ZVC
	n := len(data)
	if z.Mask == nil {
		z.Mask = bitpack.NewBitMask(n)
	} else {
		z.Mask.Reset(n)
	}
	// Pass 1: the nonzero mask, chunk-parallel (chunks own whole words).
	if ce, serial := cdc.serialChunks(n); serial {
		for lo := 0; lo < n; lo += ce {
			z.Mask.FillNonzeroRange(data, lo, min(lo+ce, n))
		}
	} else {
		cdc.forChunks(n, func(lo, hi int) {
			z.Mask.FillNonzeroRange(data, lo, hi)
		})
	}
	nnz := z.Mask.PopCount()
	if cap(z.Values) >= nnz {
		z.Values = z.Values[:nnz]
	} else {
		z.Values = make([]float32, nnz)
	}
	// Pass 2: compact the nonzeros. Each chunk's output offset is the
	// mask popcount before it, a pure function of the mask, so the value
	// layout is byte-identical at every worker count. The serial loop
	// carries the offset instead of rescanning.
	if ce, serial := cdc.serialChunks(n); serial {
		off := 0
		for lo := 0; lo < n; lo += ce {
			off += z.Mask.GatherNonzero(data, lo, min(lo+ce, n), z.Values[off:])
		}
	} else {
		cdc.forChunks(n, func(lo, hi int) {
			start := z.Mask.PopCountRange(0, lo)
			z.Mask.GatherNonzero(data, lo, hi, z.Values[start:])
		})
	}
	if pooledScratch {
		cdc.Buf.RecycleSlice(data)
	}
	// Cost guard against the dense DPR alternative, with the same
	// packed-width credit on the value array as ssdcBytes applies.
	effective := z.Bytes()
	if as.Format != floatenc.FP32 {
		effective -= int64(nnz)*4 - as.Format.PackedBytes(nnz)
	}
	if dense := as.Format.PackedBytes(n); effective >= dense {
		return errZVCLargerThanDense
	}
	return nil
}

func (zvcTech) decodeInto(cdc Codec, out *tensor.Tensor, e *EncodedStash) error {
	z := e.ZVC
	if z == nil || z.Mask == nil || z.Mask.Len() != len(out.Data) {
		return fmt.Errorf("%w: ZVC mask %d bits, shape %v", ErrShapeMismatch, zvcBits(z), e.Shape)
	}
	n := z.Mask.Len()
	if len(z.Mask.Words()) != (n+63)/64 {
		return fmt.Errorf("%w: ZVC mask has %d words for %d bits", ErrCorruptStash, len(z.Mask.Words()), n)
	}
	if nnz := z.Mask.PopCount(); len(z.Values) != nnz {
		return fmt.Errorf("%w: ZVC mask selects %d values, payload has %d", ErrCorruptStash, nnz, len(z.Values))
	}
	if ce, serial := cdc.serialChunks(n); serial {
		off := 0
		for lo := 0; lo < n; lo += ce {
			off += z.Mask.ScatterNonzero(out.Data, lo, min(lo+ce, n), z.Values[off:])
		}
	} else {
		cdc.forChunks(n, func(lo, hi int) {
			start := z.Mask.PopCountRange(0, lo)
			z.Mask.ScatterNonzero(out.Data, lo, hi, z.Values[start:])
		})
	}
	return nil
}

// zvcBits is the nil-tolerant mask length for error messages.
func zvcBits(z *ZVCPayload) int {
	if z == nil || z.Mask == nil {
		return 0
	}
	return z.Mask.Len()
}

// layout: mask words by 64-bit word ranges, Values by proportional index
// spans (content-independent, so a flipped mask bit never moves the chunk
// layout out from under attribution).
func (zvcTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	z := e.ZVC
	if z == nil || z.Mask == nil {
		return l
	}
	l.n = z.Mask.Len()
	words := z.Mask.Words()
	l.add(segment{u64: words, cut: cutAligned, per: 64})
	l.add(segment{f32: z.Values, cut: cutSpan})
	l.chunkable = len(words) == (l.n+63)/64 && (l.n > 0 || len(z.Values) == 0)
	return l
}

func (zvcTech) marshalPayload(e *EncodedStash, out []byte) ([]byte, error) {
	z := e.ZVC
	if z == nil || z.Mask == nil {
		return nil, fmt.Errorf("encoding: marshal: ZVC stash without mask")
	}
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	u32(uint32(z.Mask.Len()))
	u32(uint32(len(z.Values)))
	out = appendSegment(out, segment{u64: z.Mask.Words()})
	return appendSegment(out, segment{f32: z.Values}), nil
}

func (zvcTech) unmarshalPayload(e *EncodedStash, r *stashReader) {
	n := r.count("ZVC mask bit", maxStashElems, 0)
	nnz := r.count("ZVC value", maxStashElems, 4)
	words := r.u64s((n + 63) / 64)
	vals := r.f32s(nnz)
	if r.err == nil {
		e.ZVC = &ZVCPayload{Mask: bitpack.MaskFromWords(n, words), Values: vals}
	}
}

func (zvcTech) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return zvcBytes(elems, sparsity, f)
}

func (zvcTech) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// Encode is a mask-build pass plus a compaction pass (read dense
	// twice, write the compacted payload); decode expands it back.
	t += stream(2*dense + enc)
	t += stream(dense + enc)
	return t
}
