package sparse

import (
	"math"
	"math/bits"
)

// Word-parallel building blocks of the narrow-CSR codec. A 256-column row
// is four 64-element lanes; each lane's non-zero structure is captured as
// one uint64 mask built with a branch-free predicate, and the gather then
// visits only the set bits via trailing-zero iteration — cost proportional
// to nnz instead of one unpredictable branch per element. At ReLU-style
// ~50% sparsity the branchy loops mispredict constantly; the mask build is
// straight-line ALU work and the bit iteration branches only on the loop
// itself.

// atLeastBit returns 1 when the float32 with bit pattern b has a magnitude
// pattern (sign cleared) of at least minBits (>= 1), branch-free: adding
// 2^31-minBits carries into bit 31 exactly then. minBits is a DPR format's
// MinNonzeroBits, so the bit says "nonzero once quantized"; at FP32's 1 it
// is Go's v != 0 (both +0 and -0 are zero; every NaN is non-zero).
func atLeastBit(b, minBits uint32) uint64 {
	return uint64((b&0x7fffffff + (1<<31 - minBits)) >> 31)
}

// nzWord64 builds the non-zero mask of exactly 64 elements. Four
// independent accumulators keep the per-bit ORs in short dependency
// chains.
func nzWord64(lane []float32, minBits uint32) uint64 {
	_ = lane[63]
	var w0, w1, w2, w3 uint64
	for k := 0; k < 64; k += 4 {
		w0 |= atLeastBit(math.Float32bits(lane[k]), minBits) << uint(k)
		w1 |= atLeastBit(math.Float32bits(lane[k+1]), minBits) << uint(k+1)
		w2 |= atLeastBit(math.Float32bits(lane[k+2]), minBits) << uint(k+2)
		w3 |= atLeastBit(math.Float32bits(lane[k+3]), minBits) << uint(k+3)
	}
	return w0 | w1 | w2 | w3
}

// countNonzeros sums the non-zero predicate over xs, branch-free.
func countNonzeros(xs []float32, minBits uint32) int {
	var n uint64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		s := xs[i : i+4 : i+4]
		n += atLeastBit(math.Float32bits(s[0]), minBits) + atLeastBit(math.Float32bits(s[1]), minBits) +
			atLeastBit(math.Float32bits(s[2]), minBits) + atLeastBit(math.Float32bits(s[3]), minBits)
	}
	for ; i < len(xs); i++ {
		n += atLeastBit(math.Float32bits(xs[i]), minBits)
	}
	return int(n)
}

// gatherRow writes the (column, value) pairs of the row xs[base:end) to
// ci and vals from index 0 on and returns how many it wrote. The 64-element
// interior lanes iterate set mask bits with TrailingZeros64; emission order
// is ascending i, identical to the scalar append loop.
func gatherRow(ci []uint8, vals []float32, xs []float32, base, end int, minBits uint32) int {
	k := 0
	i := base
	for ; i+64 <= end; i += 64 {
		w := nzWord64(xs[i:i+64:i+64], minBits)
		for ; w != 0; w &= w - 1 {
			j := i + bits.TrailingZeros64(w)
			ci[k] = uint8(j - base)
			vals[k] = xs[j]
			k++
		}
	}
	for ; i < end; i++ {
		if atLeastBit(math.Float32bits(xs[i]), minBits) != 0 {
			ci[k] = uint8(i - base)
			vals[k] = xs[i]
			k++
		}
	}
	return k
}
