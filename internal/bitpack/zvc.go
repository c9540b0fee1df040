package bitpack

import (
	"math"
	"math/bits"
)

// ZVC (zero-value compression) kernels: the mask side of the
// bitmask + packed-nonzeros encoding (cDMA, Rhu et al.). A stash is stored
// as a 1-bit-per-element nonzero mask plus the nonzero values gathered in
// element order; decode scatters the values back under the mask. The three
// kernels here — nonzero mask fill, gather, scatter — are word-parallel
// with frozen scalar references in scalar_test.go, exactly like the
// Binarize kernels in bitpack.go.

// atLeastBit returns 1 when the float32 with bit pattern b has a magnitude
// pattern (sign cleared) of at least min, for min >= 1, and 0 otherwise,
// branch-free: adding 2^31-min carries into the top bit exactly then. With
// min = 1 it is the nonzero test under IEEE compare semantics (-0.0 counts
// as zero, NaN as nonzero).
func atLeastBit(b, min uint32) uint64 {
	return uint64((b&0x7fffffff + (1<<31 - min)) >> 31)
}

// FromNonzero builds the ZVC mask of a feature map: bit i is set iff
// xs[i] != 0.
func FromNonzero(xs []float32) *BitMask {
	m := NewBitMask(len(xs))
	m.FillNonzeroRange(xs, 0, len(xs))
	return m
}

// FillNonzeroRange is the chunk-range ZVC mask kernel: it sets bit i for
// every i in [start, end) where xs[i] != 0 — FillAtLeastRange at threshold
// 1. Output is bit-identical to fillNonzeroRangeScalar.
func (m *BitMask) FillNonzeroRange(xs []float32, start, end int) {
	m.FillAtLeastRange(xs, start, end, 1)
}

// FillAtLeastRange sets bit i for every i in [start, end) whose magnitude
// bits math.Float32bits(xs[i])&0x7fffffff are at least min (min >= 1) —
// with floatenc's MinNonzeroBits, the nonzeros of the map as a DPR format
// quantizes it. The same contracts as FillPositiveRange apply: touched
// words must be all-zero beforehand, and parallel chunks must start on
// 64-bit boundaries so racing writers never share a word.
func (m *BitMask) FillAtLeastRange(xs []float32, start, end int, min uint32) {
	m.checkRange(start, end)
	i := start
	for ; i < end && i&63 != 0; i++ {
		m.words[i>>6] |= atLeastBit(math.Float32bits(xs[i]), min) << (uint(i) & 63)
	}
	for ; i+64 <= end; i += 64 {
		lane := xs[i : i+64 : i+64]
		var w0, w1, w2, w3 uint64
		for k := 0; k < 64; k += 4 {
			w0 |= atLeastBit(math.Float32bits(lane[k]), min) << uint(k)
			w1 |= atLeastBit(math.Float32bits(lane[k+1]), min) << uint(k+1)
			w2 |= atLeastBit(math.Float32bits(lane[k+2]), min) << uint(k+2)
			w3 |= atLeastBit(math.Float32bits(lane[k+3]), min) << uint(k+3)
		}
		m.words[i>>6] |= w0 | w1 | w2 | w3
	}
	for ; i < end; i++ {
		m.words[i>>6] |= atLeastBit(math.Float32bits(xs[i]), min) << (uint(i) & 63)
	}
}

// PopCountRange returns the number of set bits in [start, end) — the value
// count of a ZVC chunk, which positions each chunk's span in the packed
// value array. Word-parallel: whole interior words popcount in one
// instruction; the ragged ends are masked. Output equals
// popCountRangeScalar.
func (m *BitMask) PopCountRange(start, end int) int {
	m.checkRange(start, end)
	if start == end {
		return 0
	}
	sw, ew := start>>6, (end-1)>>6
	first := ^uint64(0) << (uint(start) & 63)
	last := ^uint64(0) >> (63 - (uint(end-1) & 63))
	if sw == ew {
		return bits.OnesCount64(m.words[sw] & first & last)
	}
	c := bits.OnesCount64(m.words[sw] & first)
	for w := sw + 1; w < ew; w++ {
		c += bits.OnesCount64(m.words[w])
	}
	return c + bits.OnesCount64(m.words[ew]&last)
}

// GatherNonzero is the ZVC encode kernel: it copies xs[i] into dst, in
// element order, for every i in [start, end) whose mask bit is set, and
// returns how many values it wrote. dst must have room for
// PopCountRange(start, end) values. Parallel chunks write disjoint dst
// spans positioned by the popcount prefix sum.
//
// Word-parallel: each mask word drives a trailing-zeros extraction loop
// that visits only its set bits; all-zero words are skipped and all-one
// words become a single copy. Output is identical to gatherNonzeroScalar.
func (m *BitMask) GatherNonzero(xs []float32, start, end int, dst []float32) int {
	m.checkRange(start, end)
	k := 0
	i := start
	for ; i < end && i&63 != 0; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[k] = xs[i]
			k++
		}
	}
	for ; i+64 <= end; i += 64 {
		w := m.words[i>>6]
		if w == 0 {
			continue
		}
		lane := xs[i : i+64 : i+64]
		if w == ^uint64(0) {
			k += copy(dst[k:k+64], lane)
			continue
		}
		for ; w != 0; w &= w - 1 {
			dst[k] = lane[bits.TrailingZeros64(w)]
			k++
		}
	}
	for ; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[k] = xs[i]
			k++
		}
	}
	return k
}

// ScatterNonzero is the ZVC decode kernel: for every i in [start, end) it
// writes dst[i] = the next value of vals where the mask bit is set and 0
// elsewhere, returning how many values it consumed. vals must hold at
// least PopCountRange(start, end) values; parallel chunks pass their span
// of the packed value array.
//
// Word-parallel: all-zero words clear 64 lanes at once, all-one words copy
// them, and mixed words clear then place values by trailing-zeros
// extraction. Output is bit-identical to scatterNonzeroScalar.
func (m *BitMask) ScatterNonzero(dst []float32, start, end int, vals []float32) int {
	m.checkRange(start, end)
	k := 0
	i := start
	for ; i < end && i&63 != 0; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i] = vals[k]
			k++
		} else {
			dst[i] = 0
		}
	}
	for ; i+64 <= end; i += 64 {
		w := m.words[i>>6]
		lane := dst[i : i+64 : i+64]
		if w == 0 {
			clear(lane)
			continue
		}
		if w == ^uint64(0) {
			k += copy(lane, vals[k:k+64])
			continue
		}
		clear(lane)
		for ; w != 0; w &= w - 1 {
			lane[bits.TrailingZeros64(w)] = vals[k]
			k++
		}
	}
	for ; i < end; i++ {
		if m.words[i>>6]&(1<<(uint(i)&63)) != 0 {
			dst[i] = vals[k]
			k++
		} else {
			dst[i] = 0
		}
	}
	return k
}
