package encoding

import (
	"errors"
	"fmt"
	"hash/crc32"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/sparse"
	"gist/internal/tensor"
)

// Typed errors for the encode→hold→decode path. The stash lives in fragile
// encoded form across the long forward→backward temporal gap, so every
// anomaly surfaces as a structured error the executor can recover from
// instead of a panic.
var (
	// ErrNoTechnique reports an EncodeStash call whose assignment carries
	// no encoding technique.
	ErrNoTechnique = errors.New("encoding: stash has no technique")
	// ErrCorruptStash reports a checksum mismatch between seal and decode:
	// the encoded payload was altered while it was held.
	ErrCorruptStash = errors.New("encoding: corrupt stash (checksum mismatch)")
	// ErrStashTooLarge reports an SSDC encode whose runtime sparsity fell
	// below the break-even point, making the CSR form larger than the dense
	// DPR alternative it was supposed to beat.
	ErrStashTooLarge = errors.New("encoding: encoded stash larger than dense alternative")
	// ErrShapeMismatch reports an encoded payload whose element count does
	// not match the stash's recorded shape.
	ErrShapeMismatch = errors.New("encoding: stash payload does not match shape")

	// errCSRLargerThanDense is the pre-wrapped cost-check failure returned
	// by the SSDC encoder; static because the adaptive path takes it on
	// every step a low-sparsity stash stays dense.
	errCSRLargerThanDense = fmt.Errorf("%w: runtime CSR form not below the dense DPR cost", ErrStashTooLarge)
	// errZVCLargerThanDense is its ZVC counterpart: the runtime zero
	// pattern left too many nonzeros for the bitmask+values form to beat
	// the dense packing.
	errZVCLargerThanDense = fmt.Errorf("%w: runtime ZVC form not below the dense DPR cost", ErrStashTooLarge)
	// errEntropyLargerThanDense likewise: the entropy stream (tables
	// included) came out at least as large as the packed bytes it coded.
	errEntropyLargerThanDense = fmt.Errorf("%w: entropy stream not below the dense DPR cost", ErrStashTooLarge)
)

// EncodedStash is a materialized encoded representation of a stashed
// feature map, produced after the map's last forward use and decoded (or
// consumed directly, for Binarize) in the backward pass. The training
// executor round-trips every stash through this type so the numerical
// effect of each encoding is exercised end to end.
type EncodedStash struct {
	Tech   Technique
	Shape  tensor.Shape
	Mask   *bitpack.BitMask // Binarize
	CSR    *sparse.CSR      // SSDC (values possibly DPR-quantized)
	Packed *floatenc.Packed // DPR (also the dense-fallback container)
	ZVC    *ZVCPayload      // ZVC (values possibly DPR-quantized)
	Ent    *EntropyPayload  // Entropy (ZRL+Huffman over packed bytes)

	// Checksum is the CRC32-C of the payload, valid only after Seal. For
	// stashes sealed with chunk CRCs it is their crc32Combine roll-up —
	// bit-identical to the serial whole-payload hash.
	Checksum uint32
	// ChunkElems is the chunk size (in elements) of the parallel codec
	// layout this stash was encoded under; 0 means the default. It is fixed
	// at encode (or first Seal) so chunk-level corruption attribution does
	// not depend on the verifying codec's configuration.
	ChunkElems int
	// ChunkCRCs holds the per-chunk payload CRCs recorded by Seal, letting
	// Verify localize corruption to a single chunk. Nil when the stash was
	// sealed without a chunkable layout (whole-payload checksum only).
	ChunkCRCs []uint32
	sealed    bool
}

// EncodeStash encodes a feature map per the assignment. The input tensor is
// not modified; callers relinquish it after encoding, which is exactly the
// memory-sharing opportunity Gist creates.
//
// For SSDC the runtime zero pattern decides the footprint: when the actual
// sparsity is below the narrow-CSR break-even point the CSR form can exceed
// the dense DPR stash it competes with, and EncodeStash returns
// ErrStashTooLarge. Callers that prefer graceful degradation over a hard
// error use EncodeStashAdaptive.
//
// Encoding runs through DefaultCodec(): chunk-parallel on the shared
// worker pool, with output byte-identical to a serial encode.
func EncodeStash(as *Assignment, t *tensor.Tensor) (*EncodedStash, error) {
	return DefaultCodec().EncodeStash(as, t)
}

// EncodeDense builds the dense fallback stash: the feature map packed at
// the assignment's DPR format (raw FP32 words when the format is FP32).
// This is the representation the executor degrades to when SSDC's runtime
// sparsity makes CSR uncompetitive.
func EncodeDense(f floatenc.Format, t *tensor.Tensor) *EncodedStash {
	return DefaultCodec().EncodeDense(f, t)
}

// EncodeStashAdaptive encodes per the assignment but degrades an SSDC
// stash whose runtime CSR form is larger than its dense DPR alternative to
// the dense encoding instead of failing. It reports whether the fallback
// fired so the executor can count degradations.
func EncodeStashAdaptive(as *Assignment, t *tensor.Tensor) (e *EncodedStash, fellBack bool, err error) {
	return DefaultCodec().EncodeStashAdaptive(as, t)
}

// Seal computes and records the payload checksum, arming Verify and Decode
// to detect any later corruption of the held representation. Integrity is
// opt-in: unsealed stashes skip all checksum work (the zero-overhead path).
//
// Sealing runs through DefaultCodec(): per-chunk CRCs are computed in
// parallel and rolled up (via crc32Combine) into Checksum — the identical
// value the serial whole-payload hash produces — while ChunkCRCs records
// the pieces so Verify can localize corruption to a single chunk.
func (e *EncodedStash) Seal() {
	DefaultCodec().Seal(e)
}

// Sealed reports whether the stash carries a checksum.
func (e *EncodedStash) Sealed() bool { return e.sealed }

// Verify re-hashes the payload of a sealed stash and returns an error
// wrapping ErrCorruptStash on mismatch — a *ChunkError naming the corrupted
// chunk when the stash carries chunk CRCs. Unsealed stashes verify
// trivially.
func (e *EncodedStash) Verify() error {
	return DefaultCodec().Verify(e)
}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// modern CPUs, the conventional choice for storage integrity).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcU32 continues crc over v's four little-endian bytes, straight from the
// table: header fields are a few words, and a slice handed to crc32.Update
// always escapes (it is called through a function variable), which would
// put a heap object behind every Seal and Verify.
func crcU32(crc, v uint32) uint32 {
	crc = ^crc
	for i := 0; i < 4; i++ {
		crc = crcTable[byte(crc)^byte(v)] ^ crc>>8
		v >>= 8
	}
	return ^crc
}

// PayloadBits returns the number of addressable payload bits — the fault
// injector's corruption surface (mask words, CSR meta and value arrays,
// packed DPR words, ZVC mask+value arrays, entropy streams).
func (e *EncodedStash) PayloadBits() int {
	l := e.layout()
	return l.bits()
}

// FlipBit inverts payload bit i (0 <= i < PayloadBits), the primitive the
// fault injector uses to simulate in-memory corruption of a held stash.
func (e *EncodedStash) FlipBit(i int) {
	l := e.layout()
	if bits := l.bits(); i < 0 || i >= bits {
		panic(fmt.Sprintf("encoding: FlipBit index %d out of range [0,%d)", i, bits))
	}
	s, i := l.locate(i)
	s.flip(i)
}

// Decode materializes the FP32 staging tensor for the backward use. For
// Binarize the mask itself is the backward representation, but Decode still
// reconstructs a 0/1 tensor so that generic backward code can run unchanged
// (ReLU backward only tests Y > 0, and the pool argmax map carries the rest).
//
// A sealed stash is verified first; corruption surfaces as ErrCorruptStash
// before any decoding touches the damaged payload. Payload/shape
// disagreements (possible on unsealed stashes) surface as ErrShapeMismatch,
// and structurally damaged payloads (possible after deserialization) as
// ErrCorruptStash, rather than an index panic.
//
// Decoding runs through DefaultCodec(): chunk-parallel on the shared
// worker pool, with output identical to a serial decode.
func (e *EncodedStash) Decode() (*tensor.Tensor, error) {
	return DefaultCodec().Decode(e)
}

// Bytes returns the encoded representation's storage footprint.
func (e *EncodedStash) Bytes() int64 {
	l := e.layout()
	return int64(l.bits()/8) + int64(len(l.meta))*4
}
