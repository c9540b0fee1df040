package encoding

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

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
// one seeded RNG.
func layoutFingerprint(t *testing.T) uint64 {
	h := fnv.New64a()
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
				for _, n := range layoutPinSizes {
					tt := tensor.New(n)
					copy(tt.Data, randStash(rng, n, 0.8))
					e, _, err := c.EncodeStashAdaptive(as, tt)
					if err != nil {
						t.Fatalf("%v/%s n=%d: encode: %v", as.Tech, as.Format, n, err)
					}
					c.Seal(e)
					bits, nc := e.PayloadBits(), e.NumChunks()
					put(int64(e.Tech), e.Bytes(), int64(bits), int64(nc),
						int64(e.Checksum), int64(e.checksum()), int64(len(e.ChunkCRCs)))
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
	return h.Sum64()
}

// TestPayloadLayoutPinned pins the payload layout across commits: the
// constant was captured by running this test on a checkout of the commit
// before the layout engine replaced the per-technique derivations, so any
// drift in a byte count, a checksum or a bit's attribution fails here.
// Never re-capture it for a refactor.
func TestPayloadLayoutPinned(t *testing.T) {
	const want = 0x669a1ee2015cd9eb
	if got := layoutFingerprint(t); got != want {
		t.Fatalf("layout fingerprint %#016x, want %#016x", got, uint64(want))
	}
}
