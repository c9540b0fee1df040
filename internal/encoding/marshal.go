package encoding

import (
	"encoding/binary"
	"fmt"
	"math"

	"gist/internal/tensor"
)

// Binary serialization of an EncodedStash — the payload of a spill page and
// the input of the decode fuzzer. The format is little-endian throughout and
// self-describing enough that UnmarshalStash can rebuild the exact in-memory
// structures (including the seal) or reject the bytes with a typed error; it
// never panics, whatever the input. It is canonical: every blob
// UnmarshalStash accepts re-marshals to the same bytes.

// stashMagic leads every serialized stash, whatever its technique.
var stashMagic = [4]byte{'G', 'S', 'T', '2'}

const (
	// maxStashDims bounds the serialized shape rank.
	maxStashDims = 8
	// maxStashElems bounds the element count a deserialized stash may claim,
	// capping the decode target a hostile input can demand (16Mi elements
	// = 64 MiB of FP32, comfortably above any benchmark shape).
	maxStashElems = 1 << 24
)

// MarshalBinary serializes the stash: magic, technique, seal word (0 or 1),
// chunk layout, shape, technique-specific payload, and (when sealed) the
// checksum plus per-chunk CRCs.
func (e *EncodedStash) MarshalBinary() ([]byte, error) {
	impl, ok := techImpl(e.Tech)
	if !ok {
		return nil, fmt.Errorf("%w (technique %v)", ErrNoTechnique, e.Tech)
	}
	// One allocation: the fixed fields are at most 44 bytes (20 of header,
	// 16 of Entropy's payload header, 8 of seal) and the layout knows the rest.
	out := make([]byte, 0, 44+4*len(e.Shape)+int(e.Bytes())+4*len(e.ChunkCRCs))
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	out = append(out, stashMagic[:]...)
	u32(uint32(e.Tech))
	sealed := uint32(0)
	if e.sealed {
		sealed = 1
	}
	u32(sealed)
	u32(uint32(e.ChunkElems))
	u32(uint32(len(e.Shape)))
	for _, d := range e.Shape {
		u32(uint32(d))
	}
	out, err := impl.marshalPayload(e, out)
	if err != nil {
		return nil, err
	}
	if e.sealed {
		u32(e.Checksum)
		u32(uint32(len(e.ChunkCRCs)))
		out = appendSegment(out, segment{u32: e.ChunkCRCs})
	}
	return out, nil
}

// stashReader is a bounds-checked little-endian cursor over serialized
// bytes; every read either succeeds or records an ErrCorruptStash-wrapped
// error, so parsing code never indexes past the buffer.
type stashReader struct {
	data []byte
	off  int
	err  error
}

func (r *stashReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: unmarshal: %s", ErrCorruptStash, fmt.Sprintf(format, args...))
	}
}

func (r *stashReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *stashReader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// u64s, words32 and f32s read n little-endian items into a fresh array,
// bounds-checked as one block before anything is allocated.

func (r *stashReader) u64s(n int) []uint64 {
	b := r.bytes(8 * n)
	if r.err != nil {
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return ws
}

func words32[T uint32 | int32](r *stashReader, n int) []T {
	b := r.bytes(4 * n)
	if r.err != nil {
		return nil
	}
	ws := make([]T, n)
	for i := range ws {
		ws[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return ws
}

func (r *stashReader) f32s(n int) []float32 {
	b := r.bytes(4 * n)
	if r.err != nil {
		return nil
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

// count reads a u32 element count and validates it against the cap and the
// bytes remaining at elemBytes each, so slice allocations stay bounded by
// the input size.
func (r *stashReader) count(what string, cap, elemBytes int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n > cap {
		r.fail("%s count %d exceeds cap %d", what, n, cap)
		return 0
	}
	if n*elemBytes > len(r.data)-r.off {
		r.fail("%s count %d needs %d bytes, have %d", what, n, n*elemBytes, len(r.data)-r.off)
		return 0
	}
	return n
}

// UnmarshalStash parses a serialized stash. Malformed or truncated input
// returns an error wrapping ErrCorruptStash (ErrNoTechnique for an unknown
// technique tag); the function never panics. A seal word other than 0 or 1
// is malformed, so an accepted blob re-marshals to the same bytes. A
// successfully parsed stash is structurally safe to Verify and DecodeInto —
// those may still reject it with their own typed errors (bad checksum, shape
// mismatch, invalid CSR).
func UnmarshalStash(data []byte) (*EncodedStash, error) {
	r := &stashReader{data: data}
	if m := r.bytes(4); r.err == nil && [4]byte(m) != stashMagic {
		r.fail("bad magic %q", m)
	}
	tech := Technique(r.u32())
	sealed := r.u32()
	if r.err == nil && sealed > 1 {
		r.fail("seal word %d, want 0 or 1", sealed)
	}
	chunkElems := int(r.u32())
	if r.err == nil && (chunkElems < 0 || chunkElems > maxStashElems) {
		r.fail("chunk size %d outside [0,%d]", chunkElems, maxStashElems)
	}
	rank := r.count("shape dim", maxStashDims, 4)
	shape := make(tensor.Shape, 0, rank)
	elems := 1
	for i := 0; i < rank; i++ {
		d := int(r.u32())
		if r.err != nil {
			break
		}
		if d < 0 || d > maxStashElems || elems*max(d, 1) > maxStashElems {
			r.fail("shape dim %d overflows element cap %d", d, maxStashElems)
			break
		}
		elems *= max(d, 1)
		shape = append(shape, d)
	}
	e := &EncodedStash{Tech: tech, Shape: shape, ChunkElems: chunkElems}
	if impl, okT := techImpl(tech); okT {
		impl.unmarshalPayload(e, r)
	} else if r.err == nil {
		return nil, fmt.Errorf("%w (technique %v)", ErrNoTechnique, tech)
	}
	if sealed == 1 && r.err == nil {
		e.Checksum = r.u32()
		e.ChunkCRCs = words32[uint32](r, r.count("chunk crc", maxStashElems, 4))
		e.sealed = true
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%w: unmarshal: %d trailing bytes", ErrCorruptStash, len(r.data)-r.off)
	}
	return e, nil
}
