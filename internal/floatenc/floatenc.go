// Package floatenc implements the reduced-precision floating-point formats
// used by Gist's Delayed Precision Reduction (DPR) encoding: FP16 (IEEE half
// precision, 1 sign / 5 exponent / 10 mantissa bits), FP10 (1/5/4) and FP8
// (1/4/3). Conversion from FP32 uses round-to-nearest and clamps values that
// exceed the target format's range at the format's largest finite magnitude.
// Denormalized numbers are flushed to zero: the paper observes they have
// negligible effect on CNN accuracy, and ignoring them keeps the decoder a
// pure shift-and-mask.
//
// The package also implements the storage packing the paper describes: FP16
// packs 2 values per 32-bit word, FP10 packs 3 values per word (2 bits of
// the word unused), FP8 packs 4 values per word.
package floatenc

import (
	"fmt"
	"math"
)

// Format identifies a reduced-precision floating-point layout.
type Format int

const (
	// FP32 is the identity format (no reduction); present so callers can
	// express "keep full precision" uniformly.
	FP32 Format = iota
	// FP16 is IEEE 754 half precision: 1 sign, 5 exponent, 10 mantissa bits.
	FP16
	// FP10 has 1 sign, 5 exponent and 4 mantissa bits; three values pack
	// into a 4-byte word with 2 bits unused.
	FP10
	// FP8 has 1 sign, 4 exponent and 3 mantissa bits.
	FP8
)

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case FP10:
		return "FP10"
	case FP8:
		return "FP8"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Bits returns the number of bits a single value occupies in the format.
func (f Format) Bits() int {
	switch f {
	case FP32:
		return 32
	case FP16:
		return 16
	case FP10:
		return 10
	case FP8:
		return 8
	}
	panic("floatenc: unknown format")
}

// ValuesPerWord returns how many encoded values are packed in one 32-bit
// storage word: 1 for FP32, 2 for FP16, 3 for FP10 and 4 for FP8.
func (f Format) ValuesPerWord() int {
	switch f {
	case FP32:
		return 1
	case FP16:
		return 2
	case FP10:
		return 3
	case FP8:
		return 4
	}
	panic("floatenc: unknown format")
}

// PackedBytes returns the number of bytes needed to store n values of the
// format using its word packing.
func (f Format) PackedBytes(n int) int64 {
	vpw := f.ValuesPerWord()
	words := (n + vpw - 1) / vpw
	return int64(words) * 4
}

// CompressionRatio returns the footprint ratio of FP32 storage to packed
// storage for a large tensor: 1x for FP32, 2x for FP16, 3x for FP10 and 4x
// for FP8 (packing granularity makes the ratio exactly the values-per-word).
func (f Format) CompressionRatio() float64 {
	return float64(f.ValuesPerWord())
}

// layout describes a sign/exponent/mantissa split.
type layout struct {
	expBits, manBits uint
}

func (f Format) layout() layout {
	switch f {
	case FP16:
		return layout{expBits: 5, manBits: 10}
	case FP10:
		return layout{expBits: 5, manBits: 4}
	case FP8:
		return layout{expBits: 4, manBits: 3}
	}
	panic("floatenc: layout of " + f.String())
}

// MaxValue returns the largest finite magnitude representable in the
// format. FP32 values beyond this magnitude clamp to it during encoding.
func (f Format) MaxValue() float64 {
	if f == FP32 {
		return math.MaxFloat32
	}
	l := f.layout()
	bias := (1 << (l.expBits - 1)) - 1
	maxExp := (1 << l.expBits) - 2 - bias // all-ones exponent is reserved
	mantissa := 2 - math.Ldexp(1, -int(l.manBits))
	return math.Ldexp(mantissa, maxExp)
}

// MinNormal returns the smallest positive normal magnitude of the format.
// Values smaller than this flush to zero (denormals are not encoded).
func (f Format) MinNormal() float64 {
	if f == FP32 {
		return math.SmallestNonzeroFloat32
	}
	l := f.layout()
	bias := (1 << (l.expBits - 1)) - 1
	return math.Ldexp(1, 1-bias)
}

// Encode converts an FP32 value to the format's bit pattern. The pattern
// occupies the low Bits() bits of the result. The hot path is the
// branch-free clamp-and-round kernel over the hoisted constant table
// (tables.go); bit-identical to encodeScalar, which it delegates to for the
// rare boundary inputs.
func (f Format) Encode(v float32) uint32 {
	switch f {
	case FP32:
		return math.Float32bits(v)
	case FP16, FP10, FP8:
		return encodeFast(&fmtTab[f], f, v)
	}
	return f.encodeScalar(v) // unknown formats panic in layout()
}

func (f Format) maxFiniteBits() uint32 {
	l := f.layout()
	return (((1 << l.expBits) - 2) << l.manBits) | ((1 << l.manBits) - 1)
}

// Decode converts a bit pattern produced by Encode back to FP32. FP8 and
// FP10 are one table load (tables built from the scalar reference at init);
// FP16 uses the arithmetic re-bias kernel. Bit-identical to decodeScalar
// for every pattern.
func (f Format) Decode(bits uint32) float32 {
	switch f {
	case FP32:
		return math.Float32frombits(bits)
	case FP16:
		return decode16(bits)
	case FP10:
		return fp10LUT[bits&0x3ff]
	case FP8:
		return fp8LUT[bits&0xff]
	}
	return f.decodeScalar(bits) // unknown formats panic in layout()
}

// Quantize rounds an FP32 value through the format: Decode(Encode(v)).
// For FP32 it is the identity.
func (f Format) Quantize(v float32) float32 {
	if f == FP32 {
		return v
	}
	return f.Decode(f.Encode(v))
}

// MinNonzeroBits returns the smallest FP32 magnitude, as a bit pattern with
// the sign cleared, that the format does not flush to zero: Quantize(v) != 0
// exactly when math.Float32bits(v)&0x7fffffff >= f.MinNonzeroBits(). NaN
// lies above it (it stays NaN); so does +Inf, which clamps. For FP32 it is
// 1, the plain v != 0. The sparse encoders test this threshold to find the
// nonzeros of the quantized map without quantizing it.
func (f Format) MinNonzeroBits() uint32 {
	switch f {
	case FP32:
		return 1
	case FP16, FP10, FP8:
		return fmtTab[f].zeroBelow
	}
	panic("floatenc: unknown format")
}

// MaxRelativeError returns an upper bound on the relative rounding error for
// values within the format's normal range: 2^-(manBits+1).
func (f Format) MaxRelativeError() float64 {
	if f == FP32 {
		return 0
	}
	return math.Ldexp(1, -int(f.layout().manBits+1))
}
