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

func (binarizeTech) payloadElems(e *EncodedStash) int {
	if e.Mask != nil {
		return e.Mask.Len()
	}
	return 0
}

func (binarizeTech) bytes(e *EncodedStash) int64 { return e.Mask.Bytes() }

func (binarizeTech) payloadBits(e *EncodedStash) int { return len(e.Mask.Words()) * 64 }

func (binarizeTech) flipBit(e *EncodedStash, i int) {
	e.Mask.Words()[i/64] ^= 1 << (uint(i) % 64)
}

func (binarizeTech) chunkOfBit(e *EncodedStash, i, ce, nc int) int {
	// Bit i is element i; padding bits of the last word clamp into the
	// final chunk.
	n := e.Mask.Len()
	return clampChunk(min(i, n-1)/ce, nc)
}

func (binarizeTech) chunkSpanBytes(e *EncodedStash, elemLo, elemHi int) (int64, int64) {
	w0 := elemLo / 64
	w1 := (elemHi + 63) / 64
	return int64(w0) * 8, int64(w1) * 8
}

func (binarizeTech) checksumPayload(e *EncodedStash, w *crcWriter) {
	for _, word := range e.Mask.Words() {
		w.u64(word)
	}
}

func (binarizeTech) chunkChecksums(cdc Codec, e *EncodedStash, ce int, hcrc uint32, dst []uint32) (full uint32, chunks []uint32, ok bool) {
	if e.Mask == nil {
		return 0, nil, false
	}
	n := e.Mask.Len()
	words := e.Mask.Words()
	if len(words) != (n+63)/64 {
		return 0, nil, false
	}
	if n == 0 {
		return hcrc, nil, true
	}
	nc := (n + ce - 1) / ce
	crcs := resized(dst, nc)
	lens := make([]int64, nc)
	cdc.pool().ForEach(nc, func(c int) {
		w0 := c * ce / 64
		w1 := (min((c+1)*ce, n) + 63) / 64
		crcs[c] = crcUint64s(words[w0:w1])
		lens[c] = int64(w1-w0) * 8
	})
	full = hcrc
	for c := range crcs {
		full = crc32Combine(full, crcs[c], lens[c])
	}
	return full, crcs, true
}

func (binarizeTech) marshalPayload(e *EncodedStash, out []byte) ([]byte, error) {
	if e.Mask == nil {
		return nil, fmt.Errorf("encoding: marshal: Binarize stash without mask")
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(e.Mask.Len()))
	for _, w := range e.Mask.Words() {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out, nil
}

func (binarizeTech) unmarshalPayload(e *EncodedStash, r *stashReader) {
	n := r.count("mask bit", maxStashElems, 0)
	words := make([]uint64, 0, (n+63)/64)
	for i := 0; i < (n+63)/64; i++ {
		words = append(words, r.u64())
	}
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
