package floatenc

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests: the word-parallel codec kernels against the retained
// scalar references, bit for bit. Decode is exhausted over every possible
// bit pattern of every format; encode sweeps every FP32 exponent with
// boundary mantissas plus corner values and large randomized tensors; the
// range kernels run every size in 0..130 and the word/chunk boundary sizes
// with ragged starts.

var diffFormats = []Format{FP16, FP10, FP8}

// diffSizes covers the ragged-head/tail state space: every length 0..130
// (all alignments of the 2/3/4-values-per-word loops and the 64-bit mask
// words), plus the 768-element chunk boundaries and one large odd size.
func diffSizes() []int {
	sizes := make([]int, 0, 160)
	for n := 0; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 191, 192, 193, 255, 256, 257,
		767, 768, 769, 831, 832, 833, 1535, 1536, 1537, 100003)
	return sizes
}

// cornerFloats are the encode inputs where the scalar reference branches:
// signed zeros, denormals, values straddling each format's underflow and
// overflow boundaries, infinities and NaNs (including a payload NaN).
func cornerFloats() []float32 {
	vals := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1e-38, -1e-38, // FP32 near-denormal
		math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()),
		math.Float32frombits(0x7fc00001), // NaN with payload
		math.Float32frombits(0xffa00000), // signaling-style NaN, negative
		1, -1, 0.5, -0.5, 2, -2, 1.5, -1.5,
	}
	for _, f := range diffFormats {
		maxV := float32(f.MaxValue())
		minN := float32(f.MinNormal())
		vals = append(vals,
			maxV, -maxV,
			math.Float32frombits(math.Float32bits(maxV)+1),
			math.Float32frombits(math.Float32bits(maxV)-1),
			maxV*2, -maxV*2,
			minN, -minN, minN/2, -minN/2,
			math.Float32frombits(math.Float32bits(minN/2)+1),
			math.Float32frombits(math.Float32bits(minN/2)-1),
			minN*0.96875, // between MinNormal/2 and MinNormal: rounds up or flushes
			-minN*0.96875,
		)
	}
	return vals
}

// TestDiffDecodeExhaustive decodes every possible bit pattern of every
// format — including the out-of-range high bits Decode must mask off — with
// both kernels.
func TestDiffDecodeExhaustive(t *testing.T) {
	for _, f := range diffFormats {
		n := uint32(1) << uint(f.Bits())
		for bits := uint32(0); bits < n; bits++ {
			// Probe the raw pattern and one with garbage above Bits().
			for _, probe := range []uint32{bits, bits | n<<1} {
				got := math.Float32bits(f.Decode(probe))
				want := math.Float32bits(f.decodeScalar(probe))
				if got != want {
					t.Fatalf("%v.Decode(%#x) = %#08x, scalar %#08x", f, probe, got, want)
				}
			}
		}
	}
}

// TestDiffEncodeExponentSweep encodes, for every format, every FP32
// exponent (both signs) crossed with the mantissas that sit on rounding
// boundaries — all-zeros, all-ones, and the four patterns around the RNE
// midpoint of the dropped bits.
func TestDiffEncodeExponentSweep(t *testing.T) {
	for _, f := range diffFormats {
		shift := uint(23 - f.layout().manBits)
		half := uint32(1) << (shift - 1)
		mans := []uint32{
			0, 0x7fffff,
			half - 1, half, half + 1,
			1 << shift, 1<<shift - 1, // slot LSB boundary
			half | 1<<shift,                    // midpoint with odd kept mantissa
			0x7fffff & ^(uint32(1)<<shift - 1), // kept all-ones, dropped zero
		}
		for sign := uint32(0); sign <= 1; sign++ {
			for e := uint32(0); e <= 0xff; e++ {
				for _, man := range mans {
					v := math.Float32frombits(sign<<31 | e<<23 | man&0x7fffff)
					got, want := f.Encode(v), f.encodeScalar(v)
					if got != want {
						t.Fatalf("%v.Encode(%#08x) = %#x, scalar %#x",
							f, math.Float32bits(v), got, want)
					}
				}
			}
		}
	}
}

// TestDiffEncodeCorners runs the corner inputs and checks Quantize agrees
// with the scalar round trip on them too.
func TestDiffEncodeCorners(t *testing.T) {
	for _, f := range diffFormats {
		for _, v := range cornerFloats() {
			got, want := f.Encode(v), f.encodeScalar(v)
			if got != want {
				t.Fatalf("%v.Encode(%#08x) = %#x, scalar %#x",
					f, math.Float32bits(v), got, want)
			}
			qGot := math.Float32bits(f.Quantize(v))
			qWant := math.Float32bits(f.decodeScalar(want))
			if qGot != qWant {
				t.Fatalf("%v.Quantize(%#08x) = %#08x, scalar %#08x",
					f, math.Float32bits(v), qGot, qWant)
			}
		}
	}
}

// TestDiffEncodeRandom drives the encode kernel with a million random bit
// patterns per format — every float class appears, including NaNs and
// denormals.
func TestDiffEncodeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, f := range diffFormats {
		for trial := 0; trial < 1_000_000; trial++ {
			v := math.Float32frombits(r.Uint32())
			got, want := f.Encode(v), f.encodeScalar(v)
			if got != want {
				t.Fatalf("%v.Encode(%#08x) = %#x, scalar %#x",
					f, math.Float32bits(v), got, want)
			}
		}
	}
}

// diffInput mixes normal values, zeros and corner floats deterministically.
func diffInput(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	corners := cornerFloats()
	xs := make([]float32, n)
	for i := range xs {
		switch r.Intn(4) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = corners[r.Intn(len(corners))]
		default:
			xs[i] = float32(r.NormFloat64())
		}
	}
	return xs
}

// TestDiffEncodeRange checks the word-parallel range kernels against the
// scalar loops for every size and for ragged sub-ranges: word-identical
// packs and bit-identical decodes.
func TestDiffEncodeRange(t *testing.T) {
	for _, f := range append([]Format{FP32}, diffFormats...) {
		vpw := f.ValuesPerWord()
		for _, n := range diffSizes() {
			if n > 4096 && testing.Short() {
				continue
			}
			xs := diffInput(n, int64(n)+17)
			// Split at a word-aligned interior point like the chunked codec
			// does, and at a ragged point like a tail range does.
			splits := []int{0, (n / 2 / vpw) * vpw}
			if n > 3 {
				splits = append(splits, n/3) // possibly ragged
			}
			for _, split := range splits {
				// Word-aligned splits model parallel chunks; ragged splits
				// still compose serially because both ranges |= into the
				// shared boundary word.
				got := NewPacked(f, n)
				got.EncodeRange(xs, 0, split)
				got.EncodeRange(xs, split, n)
				want := NewPacked(f, n)
				want.encodeRangeScalar(xs, 0, n)
				for w := range want.Words {
					if got.Words[w] != want.Words[w] {
						t.Fatalf("%v n=%d split=%d: word %d = %#08x, scalar %#08x",
							f, n, split, w, got.Words[w], want.Words[w])
					}
				}

				dst := make([]float32, n)
				got.DecodeRange(dst, 0, split)
				got.DecodeRange(dst, split, n)
				ref := make([]float32, n)
				want.decodeRangeScalar(ref, 0, n)
				for i := range dst {
					if math.Float32bits(dst[i]) != math.Float32bits(ref[i]) {
						t.Fatalf("%v n=%d split=%d: decode[%d] = %#08x, scalar %#08x",
							f, n, split, i, math.Float32bits(dst[i]), math.Float32bits(ref[i]))
					}
				}
			}
		}
	}
}

// TestDiffQuantizeSlice checks the fused quantize loops against the scalar
// round trip.
func TestDiffQuantizeSlice(t *testing.T) {
	for _, f := range diffFormats {
		for _, n := range []int{0, 1, 7, 64, 130, 768, 100003} {
			xs := diffInput(n, int64(n)+99)
			ref := make([]float32, n)
			copy(ref, xs)
			QuantizeSlice(f, xs)
			quantizeSliceScalar(f, ref)
			for i := range xs {
				if math.Float32bits(xs[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("%v n=%d: quantize[%d] = %#08x, scalar %#08x",
						f, n, i, math.Float32bits(xs[i]), math.Float32bits(ref[i]))
				}
			}
		}
	}
}

// TestEncodeRangeZeroAllocs pins the alloc-freedom of the hot range
// kernels: with the layout constants hoisted into fmtTab, EncodeRange,
// DecodeRange and QuantizeSlice must not allocate at all.
func TestEncodeRangeZeroAllocs(t *testing.T) {
	const n = 4099 // ragged tail included
	xs := diffInput(n, 5)
	dst := make([]float32, n)
	for _, f := range diffFormats {
		p := NewPacked(f, n)
		if a := testing.AllocsPerRun(10, func() {
			p.Reset(f, n)
			p.EncodeRange(xs, 0, n)
		}); a != 0 {
			t.Errorf("%v EncodeRange allocs %v per run, want 0", f, a)
		}
		if a := testing.AllocsPerRun(10, func() {
			p.DecodeRange(dst, 0, n)
		}); a != 0 {
			t.Errorf("%v DecodeRange allocs %v per run, want 0", f, a)
		}
		if a := testing.AllocsPerRun(10, func() {
			QuantizeSlice(f, dst)
		}); a != 0 {
			t.Errorf("%v QuantizeSlice allocs %v per run, want 0", f, a)
		}
	}
}
