package encoding

import (
	"errors"
	"fmt"
	"hash/crc32"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// Typed errors for the encode→hold→decode path. The stash lives in fragile
// encoded form across the long forward→backward temporal gap, so every
// anomaly surfaces as a structured error the executor can recover from
// instead of a panic.
var (
	// ErrNoTechnique reports a stash whose technique the runtime does not
	// hold: none, an unknown word, or SSDC, which is a planning model only.
	ErrNoTechnique = errors.New("encoding: stash has no technique")
	// ErrCorruptStash reports a checksum mismatch between seal and decode:
	// the encoded payload was altered while it was held.
	ErrCorruptStash = errors.New("encoding: corrupt stash (checksum mismatch)")
	// ErrStashTooLarge reports a ZVC encode whose runtime sparsity fell
	// below the break-even point, making the bitmask plus values no
	// smaller than the dense DPR alternative it was supposed to beat.
	ErrStashTooLarge = errors.New("encoding: encoded stash larger than dense alternative")
	// ErrShapeMismatch reports an encoded payload whose element count does
	// not match the stash's recorded shape.
	ErrShapeMismatch = errors.New("encoding: stash payload does not match shape")

	// errZVCLargerThanDense is the pre-wrapped cost-check failure the ZVC
	// encoder returns when the runtime zero pattern left too many nonzeros
	// for the bitmask+values form to beat the dense packing; static
	// because the adaptive path takes it on every step a low-sparsity
	// stash stays dense.
	errZVCLargerThanDense = fmt.Errorf("%w: runtime ZVC form not below the dense DPR cost", ErrStashTooLarge)
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
	Packed *floatenc.Packed // DPR (also the dense-fallback container)
	ZVC    *ZVCPayload      // ZVC (values possibly DPR-quantized)

	// Checksum is the CRC32-C of the payload, valid only after Codec.Seal.
	// For stashes sealed with chunk CRCs it is their crc32Combine roll-up —
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

// Sealed reports whether the stash carries a checksum.
func (e *EncodedStash) Sealed() bool { return e.sealed }

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
// injector's corruption surface (mask words, packed DPR words, ZVC
// mask+value arrays).
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

// Bytes returns the encoded representation's storage footprint.
func (e *EncodedStash) Bytes() int64 {
	l := e.layout()
	return int64(l.bits() / 8)
}
