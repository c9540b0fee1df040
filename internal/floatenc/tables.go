package floatenc

import "math"

// Hoisted per-format constants. The original Encode recomputed layout(),
// MaxValue() and MinNormal() — two math.Ldexp calls and a handful of shifts
// — on every call; at 3-4 packed values per word that dominated the DPR
// encode kernel. fmtConsts precomputes everything the hot path needs once,
// at package init, so Encode/Decode and the word-parallel range kernels are
// pure integer ALU work on a cached table row.
type fmtConsts struct {
	manBits   uint32 // mantissa field width
	signShift uint32 // expBits + manBits: where the sign bit lands
	shift     uint32 // 23 - manBits: FP32→target mantissa shift
	half      uint32 // 1 << (shift-1): RNE midpoint of the dropped bits
	remMask   uint32 // 1<<shift - 1: the dropped mantissa bits
	manTop    uint32 // 1 << manBits: first value past the mantissa field
	maxFinite uint32 // largest finite encoding (sign 0)
	emMask    uint32 // exponent+mantissa field mask (all bits below sign)
	totalMask uint32 // whole-encoding mask, sign included
	minE      uint32 // FP32 biased exponent that maps to target exponent 1
	rangeE    uint32 // emax-1: width of the fast normal range minus one
	rebias    uint32 // (127 - bias) << manBits: decode exponent re-bias
	zeroBelow uint32 // MinNonzeroBits: halfway below the smallest normal, the least that rounds up to it
}

// fmtTab is indexed by Format; the FP32 row is unused (FP32 is the identity
// and never consults the table).
var fmtTab [4]fmtConsts

// Decode lookup tables for the sub-byte formats: every possible FP8 and
// FP10 bit pattern decoded once by the scalar reference at init. 256 and
// 1024 float32 entries (5 KB total) — identical to decodeScalar by
// construction, and a word-parallel DecodeRange becomes four (or three)
// table loads per storage word.
var (
	fp8LUT  [256]float32
	fp10LUT [1024]float32
)

func init() {
	for _, f := range []Format{FP16, FP10, FP8} {
		l := f.layout()
		bias := uint32(1)<<(l.expBits-1) - 1
		t := &fmtTab[f]
		t.manBits = uint32(l.manBits)
		t.signShift = uint32(l.expBits + l.manBits)
		t.shift = uint32(23 - l.manBits)
		t.half = 1 << (t.shift - 1)
		t.remMask = 1<<t.shift - 1
		t.manTop = 1 << l.manBits
		t.maxFinite = f.maxFiniteBits()
		t.emMask = 1<<t.signShift - 1
		t.totalMask = 1<<(t.signShift+1) - 1
		t.minE = 128 - bias
		t.rangeE = uint32(1)<<l.expBits - 3 // emax - 1
		t.rebias = (127 - bias) << l.manBits
		t.zeroBelow = t.minE<<23 - t.half
	}
	for i := range fp8LUT {
		fp8LUT[i] = FP8.decodeScalar(uint32(i))
	}
	for i := range fp10LUT {
		fp10LUT[i] = FP10.decodeScalar(uint32(i))
	}
}

// encStep is the branch-free clamp-and-round encode kernel: call-free and
// small so the compiler inlines it into the word-packing loops. It returns
// the encoded pattern (sign included) and ok=1 when that result is valid;
// ok=0 means the caller must take the scalar slow path.
//
// The range test d = e-minE <= rangeE (computed in 64 bits so the borrow
// bit is the answer) admits exactly the FP32 exponents whose target
// exponent lands in [1, emax]; for those the result is the re-biased
// exponent and truncated mantissa plus a branch-free round-to-nearest-even
// increment — rem+half-1+lsb overflows the dropped-bit field exactly when
// RNE rounds up, and a carry out of the mantissa walks into the exponent
// for free because the fields are adjacent. A rounding carry past emax
// saturates to maxFinite, matching the scalar clamp. Values far below the
// normal range (zeros, denormals, deep underflow — the common case for
// ReLU activations) take the flush predicate instead: the fast mask zeroes
// r, leaving the signed-zero encoding. Only the underflow boundary
// exponent minE-1, Inf/NaN and deep overflow report ok=0; on those the
// slow path IS the scalar reference, so agreement there is by
// construction. Output is bit-identical to encodeScalar for every input;
// the differential tests prove it.
func encStep(t *fmtConsts, b uint32) (enc, ok uint32) {
	e := b >> 23 & 0xff
	d := e - t.minE
	fast := uint32((uint64(d) - uint64(t.rangeE) - 1) >> 63)
	flush := uint32((uint64(e) - uint64(t.minE) + 1) >> 63)
	r := (d+1)<<t.manBits | (b&0x7fffff)>>t.shift
	r += (b&t.remMask + t.half - 1 + (r & 1)) >> t.shift
	// In the fast range a rounding carry overshoots maxFinite by at most 1,
	// so saturation is a borrow-bit subtract, not a compare.
	r -= uint32((uint64(t.maxFinite) - uint64(r)) >> 63)
	return b>>31<<t.signShift | r&(uint32(0)-fast), fast | flush
}

// FP16's constants, the fmtTab[FP16] fields enc16Step and dec16Pair fold in.
const (
	fp16ManBits   = 10
	fp16SignShift = 15
	fp16Shift     = 13
	fp16MinE      = 113
	fp16RangeE    = 29
	fp16MaxFinite = 0x7bff
	fp16EmMask    = 1<<fp16SignShift - 1
	fp16Rebias    = (fp16MinE - 1) << fp16ManBits
)

// enc16Step is encStep for FP16 with the format's constants folded in:
// constant shifts need no range guards, and the step fits the inliner's
// budget, which encStep does not. Same bits as encStep(&fmtTab[FP16], b).
func enc16Step(b uint32) (enc, ok uint32) {
	e := b >> 23 & 0xff
	fast := uint32((uint64(e-fp16MinE) - (fp16RangeE + 1)) >> 63)
	flush := uint32((uint64(e) - (fp16MinE - 1)) >> 63)
	// In the fast range, exponent and kept mantissa shift down together
	// and one subtract re-biases the exponent: r = (e-minE+1)<<10 | mantissa.
	r := b&0x7fffffff>>fp16Shift - fp16Rebias
	r += (b&(1<<fp16Shift-1) + (1<<(fp16Shift-1) - 1) + r&1) >> fp16Shift
	r -= uint32((fp16MaxFinite - uint64(r)) >> 63)
	return b>>31<<fp16SignShift | r&-fast, fast | flush
}

// encodeFast is the per-value encode built on encStep (enc16Step for
// FP16), used by Format.Encode and the ragged head/tail of EncodeRange.
func encodeFast(t *fmtConsts, f Format, v float32) uint32 {
	var enc, ok uint32
	if f == FP16 {
		enc, ok = enc16Step(math.Float32bits(v))
	} else {
		enc, ok = encStep(t, math.Float32bits(v))
	}
	if ok == 0 {
		return f.encodeScalar(v)
	}
	return enc
}

// dec16Pair is the arithmetic FP16 decode kernel, call-free and inlinable
// like enc16Step, run on both FP16 values of a packed word at once, one per
// 32-bit lane of a 64-bit register: r holds their FP32 patterns, the word's
// low half in the low lane, and ok is false when either is Inf or NaN,
// which the caller decodes the scalar way. A normal encoding (target
// exponent in [1, emax]) re-biases the exponent+mantissa field and shifts
// it into FP32 position — no floating-point math at all; zero and denormal
// patterns zero the field through the normal-range mask, leaving signed
// zero exactly as the scalar reference decodes them. A lane never carries
// into the next: every sum stays below 2^31. FP16 is the one format whose
// pattern space (2^16) is too large for a decode table.
func dec16Pair(w uint32) (r uint64, ok bool) {
	const (
		lanes = 1<<32 | 1 // a one in each lane
		top   = 1 << 15 * lanes
	)
	x := uint64(w)&0xffff0000<<16 | uint64(w&0xffff)
	em := x & (fp16EmMask * lanes)
	normal := (em + (1<<15-1<<fp16ManBits)*lanes) >> 15 & lanes * 0xffffffff // em >= manTop
	r = (x&top)<<16 | (em+fp16Rebias*lanes)<<fp16Shift&normal
	return r, (em+(1<<15-fp16MaxFinite-1)*lanes)&top == 0 // em <= maxFinite
}

// decode16 is the per-value FP16 decode: dec16Pair's low lane, with a high
// half of zero. Format.Decode, QuantizeSlice and the ragged head/tail of
// DecodeRange use it.
func decode16(bits uint32) float32 {
	bits &= 0xffff
	r, ok := dec16Pair(bits)
	if !ok {
		return FP16.decodeScalar(bits)
	}
	return math.Float32frombits(uint32(r))
}
