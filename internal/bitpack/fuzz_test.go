package bitpack

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzMaskWords drives the word-parallel mask kernels with arbitrary
// backing words and lengths: expand and gate must match the scalar
// references bit for bit, popcount must agree with both counting methods,
// and FromPositive(Expand(m)) must reproduce m exactly (expansion emits
// only +1.0 and +0.0, so re-binarizing is a fixed point).
func FuzzMaskWords(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), []byte{1})
	f.Add(uint16(65), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Add(uint16(833), []byte{0xaa, 0x55, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, nRaw uint16, data []byte) {
		n := int(nRaw) % 2048
		nw := (n + 63) / 64
		words := make([]uint64, nw)
		for w := range words {
			if (w+1)*8 <= len(data) {
				words[w] = binary.LittleEndian.Uint64(data[w*8:])
			} else {
				for b := w * 8; b < len(data); b++ {
					words[w] |= uint64(data[b]) << (uint(b-w*8) * 8)
				}
			}
		}
		// Zero the padding bits past n: the mask invariant every
		// constructor maintains.
		if n&63 != 0 && nw > 0 {
			words[nw-1] &= 1<<(uint(n)&63) - 1
		}
		m := maskFromWords(n, words)

		if got, want := m.PopCount(), m.popCountScalar(); got != want {
			t.Fatalf("PopCount = %d, scalar %d", got, want)
		}

		dense := make([]float32, n)
		m.ExpandRange(dense, 0, n)
		ref := make([]float32, n)
		m.expandRangeScalar(ref, 0, n)
		for i := range dense {
			if math.Float32bits(dense[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("expand[%d] = %#08x, scalar %#08x",
					i, math.Float32bits(dense[i]), math.Float32bits(ref[i]))
			}
		}

		dx := make([]float32, n)
		dxRef := make([]float32, n)
		m.ApplyGate(dx, dense)
		m.applyGateScalar(dxRef, dense)
		for i := range dx {
			if math.Float32bits(dx[i]) != math.Float32bits(dxRef[i]) {
				t.Fatalf("gate[%d] = %#08x, scalar %#08x",
					i, math.Float32bits(dx[i]), math.Float32bits(dxRef[i]))
			}
		}

		// Fixed point: re-binarizing the expansion rebuilds the mask.
		rt := FromPositive(dense)
		for w := range words {
			if rt.words[w] != words[w] {
				t.Fatalf("round-trip word %d = %#016x, want %#016x", w, rt.words[w], words[w])
			}
		}
	})
}

// maskFromWords wraps packed backing words as a mask of n bits; words must
// be exactly the (n+63)/64 words NewBitMask would allocate.
func maskFromWords(n int, words []uint64) *BitMask {
	if len(words) != (n+63)/64 {
		panic("bitpack: word count does not match the bit count")
	}
	return &BitMask{n: n, words: words}
}
