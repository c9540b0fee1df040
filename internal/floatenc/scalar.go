package floatenc

import "math"

// Retained scalar reference codecs. encodeScalar/decodeScalar are the
// original per-value implementations, kept verbatim for three jobs: the
// ground truth of the differential tests (the word-parallel kernels must
// match them bit for bit), the `scalar` legs of the Kernel benchmarks that
// `make bench-gate` compares against, and the production slow path for the
// rare inputs (underflow boundary, Inf/NaN, deep overflow) the branch-free
// fast path in floatenc.go punts on — so fast and reference agree on those
// inputs by construction. That last job is why they live here and not in a
// _test.go file like the range references built on them (scalar_test.go).
// Do not optimize these: their value is being obviously correct and frozen.

// encodeScalar converts an FP32 value to the format's bit pattern — the
// original Encode, one layout computation and range classification per
// call.
func (f Format) encodeScalar(v float32) uint32 {
	if f == FP32 {
		return math.Float32bits(v)
	}
	l := f.layout()
	bits := math.Float32bits(v)
	sign := (bits >> 31) << (l.expBits + l.manBits)

	abs := math.Abs(float64(v))
	if math.IsNaN(float64(v)) {
		// Encode NaN as all-ones exponent with a non-zero mantissa.
		return sign | (((1 << l.expBits) - 1) << l.manBits) | 1
	}
	if abs > f.MaxValue() {
		// Clamp at the largest finite value (paper: "clamped at
		// maximum/minimum value").
		return sign | f.maxFiniteBits()
	}
	if abs < f.MinNormal()/2 {
		// Underflow far below the normal range: flush to zero.
		return sign
	}

	exp32 := int((bits >> 23) & 0xff)
	man32 := bits & 0x7fffff
	bias := (1 << (l.expBits - 1)) - 1
	expT := exp32 - 127 + bias

	// Round the 23-bit mantissa to manBits using round-to-nearest-even.
	shift := 23 - l.manBits
	man := man32 >> shift
	rem := man32 & ((1 << shift) - 1)
	half := uint32(1) << (shift - 1)
	if rem > half || (rem == half && man&1 == 1) {
		man++
		if man == 1<<l.manBits { // mantissa overflowed into the exponent
			man = 0
			expT++
		}
	}
	if expT <= 0 {
		// Result is below the normal range after rounding: flush to zero
		// unless rounding reaches the smallest normal.
		if expT == 0 && man == 0 && abs >= f.MinNormal()*(1-math.Ldexp(1, -int(l.manBits+1))) {
			return sign | (1 << l.manBits)
		}
		return sign
	}
	if expT >= (1<<l.expBits)-1 {
		return sign | f.maxFiniteBits()
	}
	return sign | uint32(expT)<<l.manBits | man
}

// decodeScalar converts a bit pattern produced by Encode back to FP32 —
// the original Decode.
func (f Format) decodeScalar(bits uint32) float32 {
	if f == FP32 {
		return math.Float32frombits(bits)
	}
	l := f.layout()
	total := l.expBits + l.manBits + 1
	bits &= (1 << total) - 1
	sign := bits >> (l.expBits + l.manBits)
	exp := (bits >> l.manBits) & ((1 << l.expBits) - 1)
	man := bits & ((1 << l.manBits) - 1)

	if exp == (1<<l.expBits)-1 {
		if man != 0 {
			return float32(math.NaN())
		}
		// Infinity is never produced by Encode (values clamp), but decode
		// it for completeness.
		if sign == 1 {
			return float32(math.Inf(-1))
		}
		return float32(math.Inf(1))
	}
	if exp == 0 {
		// Denormals are flushed on encode; decode them as signed zero.
		if sign == 1 {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	bias := (1 << (l.expBits - 1)) - 1
	val := math.Ldexp(1+float64(man)/math.Ldexp(1, int(l.manBits)), int(exp)-bias)
	if sign == 1 {
		val = -val
	}
	return float32(val)
}
