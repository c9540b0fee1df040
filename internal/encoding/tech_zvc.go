package encoding

import (
	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// zvcTech is zero-value compression (the cDMA-style encoding): a 1-bit
// nonzero mask plus the nonzero values compacted in mask order. Unlike
// Binarize the values survive, so ZVC is lossless at FP32 and applies to
// any sparse stash regardless of what reads it — including the
// dense-consuming convolutions SSDC targets, at a lower metadata cost than
// CSR when rows are dense enough. With DPR layered on, the values are held
// packed at the DPR format, and the mask is built over the map as that
// format quantizes it: a value the format flushes to zero drops out of the
// mask and the payload entirely.
//
// The mask chunks by 64-bit word ranges (768-aligned boundaries); the
// value words chunk by proportional index spans — like SSDC's
// ColIdx/Values — so the chunk layout never depends on the (possibly
// corrupted) mask contents and FlipBit attribution stays exact.

// ZVCPayload is the held ZVC representation.
type ZVCPayload struct {
	// Mask has bit i set iff element i is nonzero once quantized to the
	// values' format (-0 canonicalizes to +0, matching the scalar != 0
	// predicate).
	Mask *bitpack.BitMask
	// Values holds the nonzero values in index order, packed at the DPR
	// format (FP32: one value's exact bits per word).
	Values floatenc.Packed
}

// Bytes is the payload's storage footprint.
func (z *ZVCPayload) Bytes() int64 {
	return z.Mask.Bytes() + z.Values.Bytes()
}

type zvcTech struct{}

func init() { registerTechnique(ZVC, zvcTech{}) }

func (zvcTech) name() string { return "ZVC" }

func (zvcTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	if e.ZVC == nil {
		e.ZVC = &ZVCPayload{}
	}
	z := e.ZVC
	n := len(t.Data)
	z.Mask = resetMask(z.Mask, n)
	// Pass 1: the mask of the values the format does not flush to zero,
	// chunk-parallel (chunks own whole words).
	task := cdc.elemTask(fillNonzero, n)
	task.mask, task.src, task.format = z.Mask, t.Data, as.Format
	cdc.forChunks(task)
	z.Values.ResetCompacted(as.Format, z.Mask.PopCount(), n)
	// Pass 2: compact and pack the nonzeros. Each chunk's first slot is the
	// mask popcount before it, a pure function of the mask, and the Packer
	// merges the ≤2 words a chunk shares with its neighbours, so the value
	// words are byte-identical at every worker count.
	task = cdc.elemTask(gatherNonzero, n)
	task.mask, task.src, task.packed = z.Mask, t.Data, &z.Values
	cdc.forChunks(task)
	// The held bytes are the planner's zvcBytes for this nonzero count:
	// the cost guard compares them with the dense DPR alternative.
	if dense := as.Format.PackedBytes(n); z.Bytes() >= dense {
		return errZVCLargerThanDense
	}
	return nil
}

// The ZVC encode kernels. A chunk's first value slot is the mask popcount
// before it. Gather — and the decode, StoredStash.DecodeNext — stage the
// values of zvcStage elements at a time on the stack: the mask kernels
// compact and expand them there, the floatenc word kernels pack and unpack
// them.

// zvcStage is the staging block in elements, a whole number of mask words.
const zvcStage = 512

func fillNonzero(t *chunkTask, c int) {
	lo, hi := t.span(c)
	t.mask.FillAtLeastRange(t.src, lo, hi, t.format.MinNonzeroBits())
}

func gatherNonzero(t *chunkTask, c int) {
	lo, hi := t.span(c)
	w := t.packed.PackerAt(t.mask.PopCountRange(0, lo))
	var vals [zvcStage]float32
	for b := lo; b < hi; b += zvcStage {
		k := t.mask.GatherNonzero(t.src, b, min(b+zvcStage, hi), vals[:])
		w.Append(vals[:k])
	}
	w.Flush()
}

// zvcBits is the nil-tolerant mask length for error messages.
func zvcBits(z *ZVCPayload) int {
	if z == nil || z.Mask == nil {
		return 0
	}
	return z.Mask.Len()
}

// layout: mask words by 64-bit word ranges, value words by proportional
// index spans (content-independent, so a flipped mask bit never moves the chunk
// layout out from under attribution).
func (zvcTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	z := e.ZVC
	if z == nil || z.Mask == nil {
		return l
	}
	l.n = z.Mask.Len()
	l.addHead(int(z.Values.Format))
	l.addHead(l.n)
	l.addHead(z.Values.N)
	words := z.Mask.Words()
	l.add(segment{u64: words, cut: cutAligned, per: 64})
	l.add(segment{u32: z.Values.Words, cut: cutSpan})
	l.chunkable = len(words) == (l.n+63)/64 && (l.n > 0 || len(z.Values.Words) == 0)
	return l
}

func (zvcTech) unmarshalPayload(e *EncodedStash, r WireReader) WireReader {
	f, vpw := r.format()
	n := r.count("ZVC mask bit", maxStashElems, 0)
	nnz := r.count("ZVC value", maxStashElems, 1)
	if words := (nnz + vpw - 1) / vpw; r.need(8*((n+63)/64) + 4*words) {
		if e.ZVC == nil {
			e.ZVC = &ZVCPayload{}
		}
		z := e.ZVC
		z.Mask = resetMask(z.Mask, n)
		z.Values.Format, z.Values.N, z.Values.Words = f, nnz, resized(z.Values.Words, words)
	}
	return r
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
