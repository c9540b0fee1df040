package encoding

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// layoutPinSizes are the element counts TestPayloadLayoutPinned seals: one
// element, either side of a mask word, either side of one and two alignment
// groups, and two multi-chunk sizes (the larger with a ragged tail).
var layoutPinSizes = []int{1, 64, 65, 767, 768, 769, 1537, 4096, 5000}

// layoutFingerprint hashes everything a stash's payload layout decides —
// footprint, corruption surface, chunk count, sealed and serial checksums,
// chunk CRCs, every chunk span and the chunk of every payload bit — over
// worker counts × chunk sizes × techniques × sizes, drawing every input from
// one seeded RNG. It returns two hashes: repacked over the ZVC assignments
// at a reduced DPR format, whose values are held packed at that format, and
// kept over all the others.
func layoutFingerprint(t *testing.T) (kept, repacked uint64) {
	hk, hr := fnv.New64a(), fnv.New64a()
	h := hk
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	rng := tensor.NewRNG(22)
	for _, workers := range []int{1, 2} {
		for _, ce := range []int{768, 1536, 0} {
			c := Codec{Pool: parallel.NewPool(workers), ChunkElems: ce}
			for _, as := range propAssignments() {
				h = hk
				if as.Tech == ZVC && as.Format != floatenc.FP32 {
					h = hr
				}
				for _, n := range layoutPinSizes {
					tt := tensor.New(n)
					copy(tt.Data, randStash(rng, n, 0.8))
					e := &EncodedStash{}
					if _, err := c.EncodeStashAdaptiveInto(e, as, tt); err != nil {
						t.Fatalf("%v/%s n=%d: encode: %v", as.Tech, as.Format, n, err)
					}
					c.Seal(e)
					bits, nc := e.PayloadBits(), e.NumChunks()
					put(int64(e.Tech), e.Bytes(), int64(bits), int64(nc),
						int64(preHeaderWords(e, e.Checksum)), int64(preHeaderWords(e, e.checksum())), int64(len(e.ChunkCRCs)))
					for _, crc := range e.ChunkCRCs {
						put(int64(crc))
					}
					for k := 0; k <= nc; k++ { // nc itself: the empty span past the end
						elemLo, elemHi, byteLo, byteHi := e.ChunkSpan(k)
						put(int64(elemLo), int64(elemHi), byteLo, byteHi)
					}
					for i := 0; i < bits; i++ {
						put(int64(e.ChunkOfBit(i)))
					}
				}
			}
		}
	}
	return hk.Sum64(), hr.Sum64()
}

// preHeaderWords maps a checksum of e to the one it had before the layout's
// header words joined the header piece. Both checksums hash the header piece
// and then the same payload bytes, and CRC-32 is linear, so they differ by
// the two header pieces' difference carried past the payload.
func preHeaderWords(e *EncodedStash, sum uint32) uint32 {
	l := e.layout()
	now := e.headerCRC(&l)
	l.nhead = 0
	return sum ^ crc32Combine(now^e.headerCRC(&l), 0, int64(l.bits()/8))
}

// TestPayloadLayoutPinned pins the payload layout across commits, so any
// drift in a byte count, a checksum or a bit's attribution fails here. The
// checksums are hashed as they stood before the header words joined them
// (preHeaderWords), so that change left both constants as they were. The
// kept constant was captured on a checkout of the commit before SSDC and
// ZVC held their values packed, and covers every layout that change left
// alone (the one fingerprint before it, 0x669a1ee2015cd9eb, was captured
// before the layout engine replaced the per-technique derivations); the
// repacked constant was captured when the packed value arrays landed.
// Both were re-captured when the Entropy technique left propAssignments
// (0x6cc05a7606685528 and 0xdf251556ebb4260b before), from the layout code
// as it stood, over the sweep without its rows: the sweep draws its inputs
// from one RNG, so dropping rows moves every later input. They were
// re-captured the same way when SSDC's rows left (0x44858a33f18c1fc3 and
// 0x1a2d145ac03ad887 before): on the layout code of the commit before the
// CSR container was deleted, over the sweep without its rows. Never
// re-capture either for a refactor.
func TestPayloadLayoutPinned(t *testing.T) {
	const wantKept, wantRepacked = 0x33f6aea3401b24cd, 0xbf2937613feec10e
	kept, repacked := layoutFingerprint(t)
	if kept != wantKept {
		t.Errorf("layout fingerprint %#016x, want %#016x", kept, uint64(wantKept))
	}
	if repacked != wantRepacked {
		t.Errorf("packed-value layout fingerprint %#016x, want %#016x", repacked, uint64(wantRepacked))
	}
}
