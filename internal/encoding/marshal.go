package encoding

import (
	"fmt"
	"slices"
)

// Binary serialization of an EncodedStash — the payload of a spill page and
// the input of the decode fuzzer. The format is little-endian throughout and
// self-describing enough that ReadWire can rebuild the exact in-memory
// structures (including the seal) or reject the bytes with a typed error; it
// never panics, whatever the input. It is canonical: every blob ReadWire
// accepts re-marshals to the same bytes. The payload is the technique's
// layout as stated: its header words and its segments, in order. WriteWire is the one writer and ReadWire the one
// reader; the byte-slice forms run them over a whole buffer (wire.go), the
// spill store over a file section through its fixed page buffer.

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
// chunk layout, shape, the layout's header words and segments in order, and
// (when sealed) the checksum plus per-chunk CRCs. It is AppendBinary(nil).
func (e *EncodedStash) MarshalBinary() ([]byte, error) {
	b, err := e.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendBinary appends the stash's serialized form (see MarshalBinary) to
// dst and returns the extended slice, growing it at most once: it is
// WriteWire into dst's spare capacity, sized by WireSize. On error dst is
// returned unchanged.
func (e *EncodedStash) AppendBinary(dst []byte) ([]byte, error) {
	n, err := e.WireSize()
	if err != nil {
		return dst, err
	}
	out := slices.Grow(dst, n)
	w := NewWireWriter(nil, 0, out)
	if err := e.WriteWire(&w); err != nil {
		return dst, err
	}
	return out[:len(out)+n], nil
}

// wireLayout returns the stash's layout, or why the stash has no
// serialized form: an unknown technique or no payload.
func (e *EncodedStash) wireLayout() (payloadLayout, error) {
	if _, ok := techImpl(e.Tech); !ok {
		return payloadLayout{}, fmt.Errorf("%w (technique %v)", ErrNoTechnique, e.Tech)
	}
	l := e.layout()
	if l.nhead == 0 {
		return l, fmt.Errorf("encoding: marshal: %v stash without payload", e.Tech)
	}
	return l, nil
}

// WireSize returns the length of the stash's serialized form.
func (e *EncodedStash) WireSize() (int, error) {
	l, err := e.wireLayout()
	if err != nil {
		return 0, err
	}
	// Magic, technique, seal word, chunk size and rank; the dims; the wire's
	// header words; the segments.
	n := 20 + 4*len(e.Shape) + 4*l.nhead + l.bits()/8
	if e.sealed {
		n += 8 + 4*len(e.ChunkCRCs)
	}
	return n, nil
}

// WriteWire writes the stash's serialized form (see MarshalBinary) to w:
// the fixed header, then the layout's header words and segments in wire
// order, then the seal.
func (e *EncodedStash) WriteWire(w *WireWriter) error {
	l, err := e.wireLayout()
	if err != nil {
		return err
	}
	sealed := uint32(0)
	if e.sealed {
		sealed = 1
	}
	w.Put(stashMagic[:])
	w.U32(uint32(e.Tech))
	w.U32(sealed)
	w.U32(uint32(e.ChunkElems))
	w.U32(uint32(len(e.Shape)))
	for _, d := range e.Shape {
		w.U32(uint32(d))
	}
	for _, h := range l.head[:l.nhead] {
		w.U32(h)
	}
	for i := range l.segs[:l.nseg] {
		w.segment(&l.segs[i])
	}
	if e.sealed {
		w.U32(e.Checksum)
		w.U32(uint32(len(e.ChunkCRCs)))
		w.segment(&segment{u32: e.ChunkCRCs})
	}
	return w.err
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

// UnmarshalStashInto parses a serialized stash into e: ReadWire over data.
func UnmarshalStashInto(e *EncodedStash, data []byte) error {
	r := NewWireReader(nil, 0, len(data), data)
	return ReadWire(e, &r, len(data))
}

// ReadWire parses the n-byte serialized stash at r's position into e,
// reusing e's backing arrays when their capacity allows — a spilled stash
// is read back into the container it was spilled from, so a steady-state
// spill round trip allocates nothing. Malformed or truncated input returns
// an error wrapping ErrCorruptStash (ErrNoTechnique for an unknown technique
// tag); the function never panics, and sizes no array past the n bytes. A
// seal word other than 0 or 1 is malformed, so an accepted blob re-marshals
// to the same bytes. A successfully parsed stash is structurally safe to
// Verify and DecodeInto — those may still reject it with their own typed
// errors (bad checksum, shape mismatch, mask and values that disagree).
// Payloads of other techniques e held are left in place for its next
// encode, as the encode path leaves them. On error e's contents are unspecified; reusing it
// remains valid.
func ReadWire(e *EncodedStash, r *WireReader, n int) error {
	if !r.need(n) {
		return r.err
	}
	rest := r.left - n
	v := *r
	v.left = n
	v = readStash(e, v)
	if v.err == nil && v.left != 0 {
		v.fail("%d trailing bytes", v.left)
	}
	v.left += rest
	*r = v
	return r.err
}

// readStash is ReadWire's parse: the fixed header, the technique's header
// words (unmarshalPayload, which sizes the payload's arrays), the layout's
// segments in wire order, and the seal.
func readStash(e *EncodedStash, r WireReader) WireReader {
	if m := r.Next(4); r.err == nil && [4]byte(m) != stashMagic {
		r.fail("bad magic %q", m)
	}
	tech := Technique(r.U32())
	sealed := r.U32()
	if r.err == nil && sealed > 1 {
		r.fail("seal word %d, want 0 or 1", sealed)
	}
	chunkElems := int(r.U32())
	if r.err == nil && (chunkElems < 0 || chunkElems > maxStashElems) {
		r.fail("chunk size %d outside [0,%d]", chunkElems, maxStashElems)
	}
	rank := r.count("shape dim", maxStashDims, 4)
	e.Shape = e.Shape[:0]
	elems := 1
	for i := 0; i < rank; i++ {
		d := int(r.U32())
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
	impl, ok := techImpl(tech)
	if !ok {
		if r.err == nil {
			r.err = fmt.Errorf("%w (technique %v)", ErrNoTechnique, tech)
		}
		return r
	}
	if r = impl.unmarshalPayload(e, r); r.err == nil {
		l := e.layout()
		for i := range l.segs[:l.nseg] {
			r.segment(&l.segs[i])
		}
	}
	if sealed == 1 && r.err == nil {
		e.Checksum = r.U32()
		if nc := r.count("chunk crc", maxStashElems, 4); r.err == nil {
			e.ChunkCRCs = resized(e.ChunkCRCs, nc)
			r.segment(&segment{u32: e.ChunkCRCs})
			e.sealed = r.err == nil
		}
	}
	return r
}
