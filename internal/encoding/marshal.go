package encoding

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gist/internal/floatenc"
)

// Binary serialization of an EncodedStash — the payload of a spill page and
// the input of the decode fuzzer. The format is little-endian throughout and
// self-describing enough that UnmarshalStashInto can rebuild the exact
// in-memory structures (including the seal) or reject the bytes with a typed
// error; it never panics, whatever the input. It is canonical: every blob
// UnmarshalStashInto accepts re-marshals to the same bytes.

// stashMagic leads every serialized stash, whatever its technique.
var stashMagic = [4]byte{'G', 'S', 'T', '4'}

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
// checksum plus per-chunk CRCs. It is AppendBinary(nil).
func (e *EncodedStash) MarshalBinary() ([]byte, error) {
	b, err := e.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendBinary appends the stash's serialized form (see MarshalBinary) to
// dst and returns the extended slice, growing it at most once: a caller that
// keeps its buffer — the spill store's page buffer — serializes without
// allocating. On error dst is returned unchanged.
func (e *EncodedStash) AppendBinary(dst []byte) ([]byte, error) {
	impl, ok := techImpl(e.Tech)
	if !ok {
		return dst, fmt.Errorf("%w (technique %v)", ErrNoTechnique, e.Tech)
	}
	// One growth: the fixed fields are at most 44 bytes (20 of header, 16 of
	// SSDC's payload header, 8 of seal) and the layout knows the rest.
	out := slices.Grow(dst, 44+4*len(e.Shape)+int(e.Bytes())+4*len(e.ChunkCRCs))
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
		return dst, err
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
// error, so parsing code never indexes past the buffer. It travels by value
// through the technique plug point, which keeps a parse off the heap.
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

// bytes returns the next n bytes, or nil once the input is short. A
// payload array is sized only after its bytes are known to be there, so a
// hostile count never drives an allocation.
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

// format reads a DPR format word and returns it with its values per word;
// an unknown format fails the read and reports 1 value per word, so the
// caller's size arithmetic stays defined.
func (r *stashReader) format() (floatenc.Format, int) {
	f := floatenc.Format(r.u32())
	vpw, ok := packedValuesPerWord(f)
	if !ok {
		r.fail("unknown packed format %d", int(f))
		return f, 1
	}
	return f, vpw
}

// loadPacked sets p to n values of format f held in words, the
// little-endian bytes of their packed words, reusing p's word array.
func loadPacked(p *floatenc.Packed, f floatenc.Format, n int, words []byte) {
	p.Format, p.N, p.Words = f, n, resized(p.Words, len(words)/4)
	loadSegment(segment{u32: p.Words}, words)
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

// UnmarshalStash parses a serialized stash into a new container: the
// allocating form of UnmarshalStashInto.
func UnmarshalStash(data []byte) (*EncodedStash, error) {
	e := &EncodedStash{}
	if err := UnmarshalStashInto(e, data); err != nil {
		return nil, err
	}
	return e, nil
}

// UnmarshalStashInto parses a serialized stash into e, reusing e's backing
// arrays when their capacity allows — a spilled stash is read back into the
// container it was spilled from, so a steady-state spill round trip
// allocates nothing. Malformed or truncated input returns an error wrapping
// ErrCorruptStash (ErrNoTechnique for an unknown technique tag); the
// function never panics. A seal word other than 0 or 1 is malformed, so an
// accepted blob re-marshals to the same bytes. A successfully parsed stash
// is structurally safe to Verify and DecodeInto — those may still reject it
// with their own typed errors (bad checksum, shape mismatch, invalid CSR).
// Payloads of other techniques e held are left in place for its next
// encode, as the encode path leaves them. On error e's contents are
// unspecified; reusing it remains valid.
func UnmarshalStashInto(e *EncodedStash, data []byte) error {
	r := stashReader{data: data}
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
	e.Shape = e.Shape[:0]
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
		e.Shape = append(e.Shape, d)
	}
	e.Tech, e.ChunkElems = tech, chunkElems
	e.Checksum, e.ChunkCRCs, e.sealed = 0, e.ChunkCRCs[:0], false
	if impl, okT := techImpl(tech); okT {
		r = impl.unmarshalPayload(e, r)
	} else if r.err == nil {
		return fmt.Errorf("%w (technique %v)", ErrNoTechnique, tech)
	}
	if sealed == 1 && r.err == nil {
		e.Checksum = r.u32()
		nc := r.count("chunk crc", maxStashElems, 4)
		if b := r.bytes(4 * nc); r.err == nil {
			e.ChunkCRCs = resized(e.ChunkCRCs, nc)
			loadSegment(segment{u32: e.ChunkCRCs}, b)
			e.sealed = true
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: unmarshal: %d trailing bytes", ErrCorruptStash, len(r.data)-r.off)
	}
	return nil
}
