package encoding

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"sync"
)

// The payload layout engine. A technique states once — in its layout
// method — which backing arrays its held payload consists of, in what
// order, and how each array is cut into chunks. Everything else the codec
// needs to know about a held payload derives from that statement here: the
// footprint (Bytes), the fault injector's corruption surface (PayloadBits,
// FlipBit), corruption attribution (ChunkOfBit, ChunkSpan), the serial
// whole-payload checksum and the chunked Seal/Verify roll-up that must
// equal it, and the little-endian serialisation the wire format shares
// with the checksums.

// cutRule says how a segment's items are divided among the nc chunks of an
// n-element payload under chunk size ce. chunkItems applies a rule, chunkOf
// inverts it.
type cutRule uint8

const (
	// cutAligned: item k holds elements [k·per, (k+1)·per) — mask words
	// (per = 64) and packed words (per = values per word). Every per
	// divides the chunk alignment, so chunks own whole items.
	cutAligned cutRule = iota
	// cutRows: item k > 0 closes row k-1 of per elements; item 0 is a
	// constant owned by chunk 0 — the CSR RowPtr array.
	cutRows
	// cutSpan: chunk c owns items [len·c/nc, len·(c+1)/nc) — arrays whose
	// item-to-element relation is data (CSR ColIdx/Values, ZVC values).
	// Cutting by index keeps the layout independent of (possibly
	// corrupted) payload contents, so attribution stays exact.
	cutSpan
	// cutBlocks: chunk c owns the next meta[c] items — the Entropy stream
	// under its per-chunk block table.
	cutBlocks
)

// segment is a typed view of one backing array of a payload plus its cut
// rule. Exactly one view is set; a segment with none is an empty array.
type segment struct {
	u64 []uint64
	u32 []uint32
	i32 []int32
	f32 []float32
	u8  []byte
	cut cutRule
	per int // cutAligned: elements per item; cutRows: elements per row
}

// shape returns the segment's item count and the bytes per item.
func (s *segment) shape() (items, size int) {
	switch {
	case s.u64 != nil:
		return len(s.u64), 8
	case s.u32 != nil:
		return len(s.u32), 4
	case s.i32 != nil:
		return len(s.i32), 4
	case s.f32 != nil:
		return len(s.f32), 4
	}
	return len(s.u8), 1
}

// put serialises items [lo, hi) into buf little-endian — the byte order of
// the wire format and of every checksum.
func (s *segment) put(buf []byte, lo, hi int) {
	switch {
	case s.u64 != nil:
		for i, w := range s.u64[lo:hi] {
			binary.LittleEndian.PutUint64(buf[8*i:], w)
		}
	case s.u32 != nil:
		for i, w := range s.u32[lo:hi] {
			binary.LittleEndian.PutUint32(buf[4*i:], w)
		}
	case s.i32 != nil:
		for i, w := range s.i32[lo:hi] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(w))
		}
	case s.f32 != nil:
		for i, v := range s.f32[lo:hi] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
	default:
		copy(buf, s.u8[lo:hi])
	}
}

// flip inverts bit i of the segment's serialised form.
func (s *segment) flip(i int) {
	switch {
	case s.u64 != nil:
		s.u64[i/64] ^= 1 << (uint(i) % 64)
	case s.u32 != nil:
		s.u32[i/32] ^= 1 << (uint(i) % 32)
	case s.i32 != nil:
		s.i32[i/32] ^= 1 << (uint(i) % 32)
	case s.f32 != nil:
		s.f32[i/32] = math.Float32frombits(math.Float32bits(s.f32[i/32]) ^ 1<<(uint(i)%32))
	default:
		s.u8[i/8] ^= 1 << (uint(i) % 8)
	}
}

// crcBatches recycles the buffers segment.crc serialises through: the
// argument of crc32.Update escapes (it is called through a function
// variable), so a stack buffer would put a heap object behind every piece.
const crcBatchBytes = 4096

var crcBatches = sync.Pool{New: func() any { return new([crcBatchBytes]byte) }}

// crc continues crc over the serialised items [lo, hi): bytes hash in
// place, words a batch at a time with one (hardware) crc32.Update each.
func (s *segment) crc(crc uint32, lo, hi int) uint32 {
	_, size := s.shape()
	if size == 1 {
		return crc32.Update(crc, crcTable, s.u8[lo:hi])
	}
	buf := crcBatches.Get().(*[crcBatchBytes]byte)
	for per := crcBatchBytes / size; lo < hi; lo += per {
		k := min(hi-lo, per)
		s.put(buf[:], lo, lo+k)
		crc = crc32.Update(crc, crcTable, buf[:k*size])
	}
	crcBatches.Put(buf)
	return crc
}

// appendSegment appends the segment's serialised form to out.
func appendSegment(out []byte, s segment) []byte {
	items, size := s.shape()
	n := len(out)
	out = slices.Grow(out, items*size)[:n+items*size]
	s.put(out[n:], 0, items)
	return out
}

// payloadLayout is a technique's statement of its held payload, built per
// call and passed by value: it aliases the stash's arrays, which the next
// re-encode may regrow, so it must not outlive the call that asked for it.
type payloadLayout struct {
	// n is the element count the chunk layout spans, ce the stash's
	// (normalized) chunk size and nc = ⌈n/ce⌉ the chunk count; the
	// technique states n, EncodedStash.layout fills in the other two.
	n, ce, nc int
	// segs[:nseg] are the bit-addressable backing arrays in hash (= wire =
	// FlipBit address) order.
	segs [3]segment
	nseg int
	// ext[:nExt] then meta are payload metadata hashed into the header
	// piece of the roll-up, right after the shape. Neither is
	// bit-addressable — fault injection never lands in them, so the chunk
	// layout survives every flip — and only meta counts in the footprint.
	ext  [3]uint32
	nExt int
	meta []uint32
	// chunkable reports that the arrays have the lengths the chunk layout
	// expects for n elements. When false (hand-built or deserialized
	// oddities) the stash seals with the serial checksum and no chunk CRCs.
	chunkable bool
}

func (l *payloadLayout) add(s segment) {
	l.segs[l.nseg] = s
	l.nseg++
}

// bits is the size of the bit-addressable payload: every segment, no meta.
func (l *payloadLayout) bits() int {
	total := 0
	for i := range l.segs[:l.nseg] {
		items, size := l.segs[i].shape()
		total += items * size * 8
	}
	return total
}

// locate resolves payload bit i to its segment and the bit's offset within
// it. Callers bounds-check i against payloadBits.
func (l *payloadLayout) locate(i int) (*segment, int) {
	for k := range l.segs[:l.nseg] {
		s := &l.segs[k]
		items, size := s.shape()
		if i < items*size*8 {
			return s, i
		}
		i -= items * size * 8
	}
	panic("encoding: payload bit beyond the layout")
}

// chunkItems returns the items [lo, hi) of s that chunk c owns.
func (l *payloadLayout) chunkItems(s *segment, c int) (lo, hi int) {
	items, _ := s.shape()
	switch s.cut {
	case cutAligned:
		return c * l.ce / s.per, (min((c+1)*l.ce, l.n) + s.per - 1) / s.per
	case cutRows:
		rowsPer := l.ce / s.per
		if c > 0 {
			lo = c*rowsPer + 1
		}
		return lo, min((c+1)*rowsPer, items-1) + 1
	case cutSpan:
		return items * c / l.nc, items * (c + 1) / l.nc
	}
	for _, b := range l.meta[:c] {
		lo += int(b)
	}
	return lo, lo + int(l.meta[c])
}

// chunkOf returns the chunk whose CRC covers item k of s: the inverse of
// chunkItems, clamped so padding items and over-long arrays still land in
// a real chunk.
func (l *payloadLayout) chunkOf(s *segment, k int) int {
	switch s.cut {
	case cutAligned:
		return clampChunk(min(k*s.per, l.n-1)/l.ce, l.nc)
	case cutRows:
		return clampChunk(max(k-1, 0)*s.per/l.ce, l.nc)
	case cutSpan:
		items, _ := s.shape()
		return spanOf(k, items, l.nc)
	}
	off := 0
	for c, b := range l.meta {
		if off += int(b); k < off {
			return c
		}
	}
	return clampChunk(l.nc-1, l.nc)
}

// clampChunk clamps a computed chunk index into [0, nc).
func clampChunk(c, nc int) int {
	if c >= nc {
		return nc - 1
	}
	if c < 0 {
		return 0
	}
	return c
}

// spanOf inverts the proportional partition of cutSpan: the chunk c with
// length·c/nc <= k < length·(c+1)/nc.
func spanOf(k, length, nc int) int {
	return sort.Search(nc, func(c int) bool { return k < length*(c+1)/nc })
}

// layout resolves the stash's payload layout under its own chunk size — the
// zero layout (no payload, not chunkable) for an unregistered technique.
func (e *EncodedStash) layout() (l payloadLayout) {
	ce := normalizeChunkElems(e.ChunkElems)
	if impl, ok := techImpl(e.Tech); ok {
		l = impl.layout(e, ce)
	}
	l.ce, l.nc = ce, (l.n+ce-1)/ce
	return l
}

// headerCRC hashes the header piece of both checksums: technique, shape
// rank, dims, then the layout's ext and meta words.
func (l *payloadLayout) headerCRC(e *EncodedStash) uint32 {
	crc := crcU32(0, uint32(e.Tech))
	crc = crcU32(crc, uint32(len(e.Shape)))
	for _, d := range e.Shape {
		crc = crcU32(crc, uint32(d))
	}
	for _, v := range l.ext[:l.nExt] {
		crc = crcU32(crc, v)
	}
	for _, v := range l.meta {
		crc = crcU32(crc, v)
	}
	return crc
}

// checksum is the serial whole-payload checksum: the header piece, then
// every segment streamed whole through one running CRC. It never combines,
// so it stays an independent oracle for the chunked roll-up.
func (e *EncodedStash) checksum() uint32 {
	l := e.layout()
	crc := l.headerCRC(e)
	for i := range l.segs[:l.nseg] {
		items, _ := l.segs[i].shape()
		crc = l.segs[i].crc(crc, 0, items)
	}
	return crc
}

// crcScratch recycles the CRC buffers of Verify (the per-chunk CRCs it
// re-hashes into, leaving the stash untouched) and of the parallel roll-up
// (one CRC per piece).
var crcScratch = sync.Pool{New: func() any { return new([]uint32) }}

// chunkChecksumsInto hashes every chunk's pieces — one per segment — and
// returns the per-chunk CRCs, in dst's backing array when that has the
// capacity, plus the roll-up: full = header ⊕ pieces in segment-major order
// (the order checksum() streams them, so the two are equal), chunks[c] =
// chunk c's pieces across segments. ok = false means the payload does not
// fit the chunk layout and the caller must fall back to checksum().
func (cdc Codec) chunkChecksumsInto(dst []uint32, e *EncodedStash) (full uint32, chunks []uint32, ok bool) {
	l := e.layout()
	if !l.chunkable {
		return 0, nil, false
	}
	var pieces []uint32 // nil: each piece is hashed inline by the roll-up loop
	if !cdc.inlineChunks(l.nc) {
		buf := crcScratch.Get().(*[]uint32)
		defer crcScratch.Put(buf)
		*buf = resized(*buf, l.nseg*l.nc)
		pieces = *buf
		cdc.hashPieces(l, pieces)
	}
	full = l.headerCRC(e)
	chunks = resized(dst, l.nc)
	for k := range l.segs[:l.nseg] {
		s := &l.segs[k]
		_, size := s.shape()
		for c := range chunks {
			lo, hi := l.chunkItems(s, c)
			var piece uint32
			if pieces != nil {
				piece = pieces[k*l.nc+c]
			} else {
				piece = s.crc(0, lo, hi)
			}
			bytes := int64(hi-lo) * int64(size)
			full = crc32Combine(full, piece, bytes)
			if k == 0 {
				chunks[c] = piece // a combine costs more than hashing a small piece: skip the no-op one
			} else {
				chunks[c] = crc32Combine(chunks[c], piece, bytes)
			}
		}
	}
	return full, chunks, true
}

// hashPieces fills pieces[k·nc+c] with the CRC of segment k's share of
// chunk c, on the pool. It is its own function, taking the layout by
// value, so that the closure's capture does not make the caller's layout
// escape on the inline path as well.
func (cdc Codec) hashPieces(l payloadLayout, pieces []uint32) {
	cdc.pool().ForEach(len(pieces), func(t int) {
		s := &l.segs[t/l.nc]
		lo, hi := l.chunkItems(s, t%l.nc)
		pieces[t] = s.crc(0, lo, hi)
	})
}
