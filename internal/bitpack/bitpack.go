// Package bitpack provides the dense sub-byte containers behind Gist's
// Binarize encoding: a 1-bit-per-element mask (the "was this ReLU output
// positive?" bit that replaces a 32-bit feature-map value, a 32x
// compression) and a 4-bit-per-element nibble array (the MaxPool
// output-to-input argmax map; 4 bits cover windows up to 4x4, and the
// largest window in the paper's application suite is 3x3, an 8x
// compression over a stashed FP32 pool output).
package bitpack

import (
	"fmt"
	"math"
	"math/bits"
)

// BitMask stores n boolean values packed 64 per word.
type BitMask struct {
	n     int
	words []uint64
}

// NewBitMask allocates an all-false mask of n bits.
func NewBitMask(n int) *BitMask {
	return &BitMask{n: n, words: make([]uint64, (n+63)/64)}
}

// FromPositive builds the Binarize mask of a feature map: bit i is set iff
// xs[i] > 0, which is exactly the predicate the ReLU backward pass needs.
func FromPositive(xs []float32) *BitMask {
	m := NewBitMask(len(xs))
	m.FillPositiveRange(xs, 0, len(xs))
	return m
}

// Reset resizes the mask to n bits, all false, reusing the backing words
// when their capacity allows. It restores exactly the state NewBitMask
// returns, so pooled encode paths can rebuild a mask in place instead of
// allocating one per step.
func (m *BitMask) Reset(n int) {
	nw := (n + 63) / 64
	if cap(m.words) < nw {
		m.words = make([]uint64, nw)
	} else {
		m.words = m.words[:nw]
		clear(m.words)
	}
	m.n = n
}

// PositiveMask returns all ones when the float32 with bit pattern b is
// strictly positive and zero otherwise, branch-free. It is the one sign
// predicate of the repository: the bit Binarize stores (FillPositiveRange)
// and the gate the ReLU kernels apply are both this function. v > 0 holds
// exactly for bit patterns in [1, 0x7f800000] (positive denormals through
// +Inf; +0, every negative and every NaN fall outside), so after the
// wrapping decrement the predicate is a single 64-bit subtraction whose
// borrow fills the high word.
func PositiveMask(b uint32) uint32 {
	return uint32((uint64(b-1) - 0x7f800000) >> 32)
}

// positiveBit is PositiveMask as one bit in the low position of a word.
// Widening before the shift lets the compiler fuse both shifts into one.
func positiveBit(v float32) uint64 {
	return uint64(PositiveMask(math.Float32bits(v))) >> 31
}

// FillPositiveRange is the chunk-range Binarize kernel: it sets bit i for
// every i in [start, end) where xs[i-start] > 0 (xs holds the span's
// elements). The mask words touched must be
// all-zero beforehand (as NewBitMask leaves them), and for parallel chunks
// start must be a multiple of 64 — and end too, unless end == Len() — so
// each chunk owns whole words and racing writers never share one.
//
// Word-parallel: the aligned interior accumulates 64 predicate bits in a
// register and touches memory once per word; only the ragged head and tail
// read-modify-write one bit at a time. Every element is classified by
// PositiveMask, without a branch. Output is bit-identical to
// fillPositiveRangeScalar.
func (m *BitMask) FillPositiveRange(xs []float32, start, end int) {
	m.checkRange(start, end)
	xs = xs[:end-start]
	i := start
	for ; i < end && i&63 != 0; i++ {
		m.words[i>>6] |= positiveBit(xs[i-start]) << (uint(i) & 63)
	}
	for ; i+64 <= end; i += 64 {
		lane := xs[i-start:][:64:64]
		// Four independent accumulators so the per-bit ORs form four short
		// dependency chains instead of one 64-deep chain.
		var w0, w1, w2, w3 uint64
		for k := 0; k < 64; k += 4 {
			w0 |= positiveBit(lane[k]) << uint(k)
			w1 |= positiveBit(lane[k+1]) << uint(k+1)
			w2 |= positiveBit(lane[k+2]) << uint(k+2)
			w3 |= positiveBit(lane[k+3]) << uint(k+3)
		}
		m.words[i>>6] |= w0 | w1 | w2 | w3
	}
	for ; i < end; i++ {
		m.words[i>>6] |= positiveBit(xs[i-start]) << (uint(i) & 63)
	}
}

// ExpandRange is the chunk-range decode kernel: dst[i-start] = 1 where bit
// i is set and 0 elsewhere, for every i in [start, end). dst holds the
// span's elements; chunks may cover any partition of [0, Len()) since each
// element is written independently.
//
// Word-parallel: the aligned interior loads each mask word once and turns
// every bit into float bits by multiplication (bit * 0x3f800000 is +1.0 or
// +0.0), branch-free; an all-zero word clears its 64 lanes in one call.
// Output is bit-identical to expandRangeScalar.
func (m *BitMask) ExpandRange(dst []float32, start, end int) {
	m.checkRange(start, end)
	i := start
	for ; i < end && i&63 != 0; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i-start] = 1
		} else {
			dst[i-start] = 0
		}
	}
	for ; i+64 <= end; i += 64 {
		w := m.words[i>>6]
		j := i - start
		lane := dst[j : j+64 : j+64]
		if w == 0 {
			clear(lane)
			continue
		}
		for k := range lane {
			lane[k] = math.Float32frombits(uint32(w>>uint(k)&1) * 0x3f800000)
		}
	}
	for ; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i-start] = 1
		} else {
			dst[i-start] = 0
		}
	}
}

func (m *BitMask) checkRange(start, end int) {
	if start < 0 || end < start || end > m.n {
		panic(fmt.Sprintf("bitpack: range [%d,%d) outside [0,%d)", start, end, m.n))
	}
}

// Len returns the number of bits in the mask.
func (m *BitMask) Len() int { return m.n }

// Words exposes the packed backing words. Integrity checksums and the
// fault injector operate on this raw view; ordinary callers use Get/Set.
func (m *BitMask) Words() []uint64 { return m.words }

// Bytes returns the storage footprint of the packed mask.
func (m *BitMask) Bytes() int64 { return int64(len(m.words)) * 8 }

// Get returns bit i.
func (m *BitMask) Get(i int) bool {
	m.check(i)
	return m.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set assigns bit i.
func (m *BitMask) Set(i int, v bool) {
	m.check(i)
	if v {
		m.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		m.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func (m *BitMask) check(i int) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, m.n))
	}
}

// PopCount returns the number of set bits.
func (m *BitMask) PopCount() int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ApplyGate writes dx[i] = dy[i] where bit i is set and 0 elsewhere: the
// ReLU backward pass computed directly on the Binarize-encoded mask. dx and
// dy must have length Len().
//
// Word-parallel: each mask word gates 64 elements by widening its bits to
// 32-bit lane masks ANDed onto dy's bit patterns — bit-exact pass-through
// (NaN payloads and signed zeros survive) with no branch per element.
// All-zero and all-one words become clear and copy. Output is bit-identical
// to applyGateScalar.
func (m *BitMask) ApplyGate(dx, dy []float32) {
	if len(dx) != m.n || len(dy) != m.n {
		panic("bitpack: ApplyGate length mismatch")
	}
	i := 0
	for ; i+64 <= m.n; i += 64 {
		w := m.words[i>>6]
		dxl := dx[i : i+64 : i+64]
		if w == 0 {
			clear(dxl)
			continue
		}
		dyl := dy[i : i+64 : i+64]
		if w == ^uint64(0) {
			copy(dxl, dyl)
			continue
		}
		for k := 0; k < 64; k += 4 {
			m0 := uint32(0) - uint32(w>>uint(k)&1)
			m1 := uint32(0) - uint32(w>>uint(k+1)&1)
			m2 := uint32(0) - uint32(w>>uint(k+2)&1)
			m3 := uint32(0) - uint32(w>>uint(k+3)&1)
			dxl[k] = math.Float32frombits(math.Float32bits(dyl[k]) & m0)
			dxl[k+1] = math.Float32frombits(math.Float32bits(dyl[k+1]) & m1)
			dxl[k+2] = math.Float32frombits(math.Float32bits(dyl[k+2]) & m2)
			dxl[k+3] = math.Float32frombits(math.Float32bits(dyl[k+3]) & m3)
		}
	}
	for ; i < m.n; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

// NibbleArray stores n values of 4 bits each (range 0-15), packed 8 per
// 32-bit word. MaxPool's Y-to-X argmax map stores the within-window index of
// each window's maximum here.
type NibbleArray struct {
	n     int
	words []uint32
}

// NewNibbleArray allocates an all-zero array of n nibbles.
func NewNibbleArray(n int) *NibbleArray {
	return &NibbleArray{n: n, words: make([]uint32, (n+7)/8)}
}

// Reset resizes the array to n nibbles, all zero, reusing the backing words
// when their capacity allows — the in-place counterpart of NewNibbleArray
// for per-step scratch like the MaxPool argmax map.
func (a *NibbleArray) Reset(n int) {
	nw := (n + 7) / 8
	if cap(a.words) < nw {
		a.words = make([]uint32, nw)
	} else {
		a.words = a.words[:nw]
		clear(a.words)
	}
	a.n = n
}

// Len returns the number of nibbles.
func (a *NibbleArray) Len() int { return a.n }

// Words exposes the packed backing words, nibble i at bits 4·(i mod 8) of
// word i/8. Kernels that produce whole words of nibbles at once (the tiling
// MaxPool forward) store through this view; ordinary callers use Get/Set.
func (a *NibbleArray) Words() []uint32 { return a.words }

// Bytes returns the storage footprint of the packed array.
func (a *NibbleArray) Bytes() int64 { return int64(len(a.words)) * 4 }

// Get returns nibble i.
func (a *NibbleArray) Get(i int) uint8 {
	a.check(i)
	return uint8(a.words[i>>3] >> ((uint(i) & 7) * 4) & 0xf)
}

// Set assigns nibble i. It panics if v does not fit in 4 bits.
func (a *NibbleArray) Set(i int, v uint8) {
	a.check(i)
	if v > 15 {
		panic(fmt.Sprintf("bitpack: nibble value %d out of range", v))
	}
	shift := (uint(i) & 7) * 4
	a.words[i>>3] = a.words[i>>3]&^(0xf<<shift) | uint32(v)<<shift
}

func (a *NibbleArray) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, a.n))
	}
}
