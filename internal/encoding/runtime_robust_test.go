package encoding

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// denseWithNNZ builds an n-element tensor whose first nnz elements are 1
// (exact in every DPR format) and the rest zero. A sparse container's
// footprint depends only on the non-zero count, so the layout is
// irrelevant.
func denseWithNNZ(n, nnz int) *tensor.Tensor {
	x := tensor.New(n)
	for i := 0; i < nnz; i++ {
		x.Data[i] = 1
	}
	return x
}

// TestSSDCFallbackAroundBreakEven pins SSDC's exact size (SSDCBytes, the
// ratio experiment's SSDC column) against the dense stash exactly at the
// narrow-CSR break-even point, for plain SSDC (FP32 values) and SSDC with
// DPR layered on the value array. With n = 4096 and 16 narrow rows the
// RowPtr overhead is 68 bytes, so:
//
//	FP32: effective = 5·nnz + 68, dense = 4n = 16384  → break-even nnz 3263/3264
//	FP16: effective = 3·nnz + 68, dense = 2n = 8192   → break-even nnz 2706/2708
//
// (~20% and ~33% sparsity, matching BreakEvenSparsity.) SSDC is a
// planning model: the runtime refuses an SSDC assignment on either side of
// the threshold with ErrNoTechnique.
func TestSSDCFallbackAroundBreakEven(t *testing.T) {
	const n = 4096
	cases := []struct {
		name         string
		format       floatenc.Format
		nnz          int
		wantFallback bool
	}{
		{"fp32/dense-input", floatenc.FP32, n, true},
		{"fp32/just-over-break-even", floatenc.FP32, 3264, true},
		{"fp32/just-under-break-even", floatenc.FP32, 3263, false},
		{"fp32/very-sparse", floatenc.FP32, n / 10, false},
		{"fp16/just-over-break-even", floatenc.FP16, 2708, true},
		{"fp16/just-under-break-even", floatenc.FP16, 2706, false},
		{"fp16/half-sparse", floatenc.FP16, n / 2, false},
		{"fp8/dense-input", floatenc.FP8, n, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			held := SSDCBytes(n, tc.nnz, tc.format)
			if fellBack := held >= tc.format.PackedBytes(n); fellBack != tc.wantFallback {
				t.Fatalf("nnz %d: SSDC holds %d B against dense %d: fallback %v, want %v",
					tc.nnz, held, tc.format.PackedBytes(n), fellBack, tc.wantFallback)
			}
			as := &Assignment{Tech: SSDC, Format: tc.format}
			if _, _, err := adaptiveFresh(Codec{}, as, denseWithNNZ(n, tc.nnz)); !errors.Is(err, ErrNoTechnique) {
				t.Fatalf("EncodeStashAdaptiveInto of an SSDC assignment: %v, want ErrNoTechnique", err)
			}
		})
	}
}

// TestFallbackThresholdMatchesModel cross-checks the runtime ZVC decision
// against the exact held size on randomized zero patterns.
func TestFallbackThresholdMatchesModel(t *testing.T) {
	const n = 2048
	var c Codec
	as := &Assignment{Tech: ZVC, Format: floatenc.FP32}
	for _, sparsity := range []float64{0, 0.01, 0.03, 0.04, 0.1, 0.6, 0.95} {
		x := tensor.New(n)
		r := tensor.NewRNG(uint64(1000 * sparsity))
		nnz := 0
		for i := range x.Data {
			if r.Float64() >= sparsity {
				x.Data[i] = 1
				nnz++
			}
		}
		_, fellBack, err := adaptiveFresh(c, as, x)
		if err != nil {
			t.Fatal(err)
		}
		wantFallback := binarizeMaskBytes(n)+int64(nnz)*4 >= 4*n
		if fellBack != wantFallback {
			t.Errorf("sparsity %.2f (nnz %d): fellBack = %v, model says %v",
				sparsity, nnz, fellBack, wantFallback)
		}
	}
}

// layoutEdgeCase is a hand-built stash at an edge of the chunk layout.
type layoutEdgeCase struct {
	name string
	e    *EncodedStash
	// chunkable: the stash seals through the chunk roll-up (of zero chunks
	// here) rather than the serial whole-payload checksum.
	chunkable bool
	// sum is the sealed checksum without the layout's header words
	// (preHeaderWords), captured at the commit before the layout engine
	// replaced the per-technique checksum code.
	sum uint32
}

// layoutEdgeCases builds payloads no encoder produces but a deserializer or
// a test can: empty stashes of every technique (which roll up to the bare
// header CRC), an empty ZVC mask that still carries values, a DPR stash
// with a garbage format.
func layoutEdgeCases() []layoutEdgeCase {
	empty := tensor.Shape{0}
	return []layoutEdgeCase{
		{"binarize-empty", &EncodedStash{Tech: Binarize, Shape: empty, Mask: bitpack.NewBitMask(0)}, true, 0x532d1c4a},
		{"dpr-empty", &EncodedStash{Tech: DPR, Shape: empty, Packed: floatenc.NewPacked(floatenc.FP16, 0)}, true, 0x31ceb42a},
		{"zvc-empty", &EncodedStash{Tech: ZVC, Shape: empty, ZVC: &ZVCPayload{Mask: bitpack.NewBitMask(0)}}, true, 0xa79b98ba},
		{"zvc-empty-mask-with-values", &EncodedStash{Tech: ZVC, Shape: empty,
			ZVC: &ZVCPayload{Mask: bitpack.NewBitMask(0), Values: floatenc.Packed{Format: floatenc.FP32, N: 2,
				Words: []uint32{math.Float32bits(1.5), math.Float32bits(-2)}}}}, false, 0xbbdc9e9c},
		{"dpr-garbage-format", &EncodedStash{Tech: DPR, Shape: tensor.Shape{4},
			Packed: &floatenc.Packed{Format: floatenc.Format(77), N: 4, Words: []uint32{1, 2}}}, false, 0x24914d61},
	}
}

// TestSealVerifyDetectsFlipsInEverySegment flips a bit in each payload
// segment of each technique and checks the CRC catches all of them.
func TestSealVerifyDetectsFlipsInEverySegment(t *testing.T) {
	var c Codec
	mk := func(tech Technique, f floatenc.Format) *EncodedStash {
		x := tensor.New(1000)
		r := tensor.NewRNG(9)
		for i := range x.Data {
			if r.Float64() > 0.7 {
				x.Data[i] = r.Float32() + 0.5
			}
		}
		e, err := encodeFresh(c, &Assignment{Tech: tech, Format: f}, x)
		if err != nil {
			t.Fatalf("encode %v: %v", tech, err)
		}
		c.Seal(e)
		return e
	}

	t.Run("unsealed-verifies-trivially", func(t *testing.T) {
		e, _ := encodeFresh(c, &Assignment{Tech: DPR, Format: floatenc.FP16}, tensor.New(8))
		if e.Sealed() {
			t.Fatal("fresh stash must not be sealed")
		}
		if err := c.Verify(e); err != nil {
			t.Fatalf("unsealed Verify: %v", err)
		}
	})

	t.Run("sealed-clean-verifies", func(t *testing.T) {
		for _, tech := range []Technique{Binarize, ZVC, DPR} {
			e := mk(tech, floatenc.FP16)
			if err := c.Verify(e); err != nil {
				t.Fatalf("%v: clean Verify: %v", tech, err)
			}
			if _, err := decodeFresh(c, e); err != nil {
				t.Fatalf("%v: clean Decode: %v", tech, err)
			}
		}
	})

	t.Run("flip-anywhere-detected", func(t *testing.T) {
		for _, tech := range []Technique{Binarize, ZVC, DPR} {
			e := mk(tech, floatenc.FP16)
			bits := e.PayloadBits()
			if bits == 0 {
				t.Fatalf("%v: empty payload", tech)
			}
			// Probe a spread of bit positions including both ends: for ZVC
			// this crosses the mask and values segments.
			for _, bit := range []int{0, 1, bits / 4, bits / 2, 3 * bits / 4, bits - 1} {
				e.FlipBit(bit)
				if err := c.Verify(e); !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("%v: flip of bit %d/%d not detected: %v", tech, bit, bits, err)
				}
				if _, err := decodeFresh(c, e); !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("%v: Decode after flip: %v", tech, err)
				}
				e.FlipBit(bit) // restore
				if err := c.Verify(e); err != nil {
					t.Fatalf("%v: flip-back of bit %d must verify: %v", tech, bit, err)
				}
			}
		}
	})

	t.Run("layout-edge-cases", func(t *testing.T) {
		for _, tc := range layoutEdgeCases() {
			e := tc.e
			if _, _, ok := c.chunkChecksums(e); ok != tc.chunkable {
				t.Fatalf("%s: chunkable = %v, want %v", tc.name, ok, tc.chunkable)
			}
			c.Seal(e)
			if e.Checksum != e.checksum() || preHeaderWords(e, e.Checksum) != tc.sum || len(e.ChunkCRCs) != 0 {
				t.Fatalf("%s: sealed %#08x (serial oracle %#08x, %d chunk CRCs; %#08x without header words), want %#08x and none",
					tc.name, e.Checksum, e.checksum(), len(e.ChunkCRCs), preHeaderWords(e, e.Checksum), tc.sum)
			}
			if err := c.Verify(e); err != nil {
				t.Fatalf("%s: clean Verify: %v", tc.name, err)
			}
			for bit := 0; bit < e.PayloadBits(); bit++ {
				e.FlipBit(bit)
				err := c.Verify(e)
				if !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("%s: flip of bit %d not detected: %v", tc.name, bit, err)
				}
				if _, ok := CorruptedChunk(err); ok {
					t.Fatalf("%s: flip of bit %d names a chunk in a stash without chunk CRCs: %v", tc.name, bit, err)
				}
				e.FlipBit(bit)
			}
			e.Shape = tensor.Shape{1} // the header is under the seal too
			if err := c.Verify(e); !errors.Is(err, ErrCorruptStash) {
				t.Fatalf("%s: shape change not detected: %v", tc.name, err)
			}
		}
	})
}

// TestSealCoversHeaderWords flips, on a sealed stash of every technique,
// each header word its decode trusts besides its arrays — the packed format
// and count, the mask length — and
// requires Verify to reject it as corrupt, and to accept it flipped back.
// A flipped count or format may leave the payload's arrays the same length
// or push the stash off the chunk roll-up onto the serial checksum: either
// way only the header words in the checksum tell the stash changed.
func TestSealCoversHeaderWords(t *testing.T) {
	var c Codec
	// 210 elements: not a whole number of mask words, so a mask length one
	// longer keeps the same words.
	x := tensor.New(2, 3, 5, 7)
	r := tensor.NewRNG(4)
	for i := range x.Data {
		if r.Float64() > 0.6 {
			x.Data[i] = r.Float32() + 0.5
		}
	}
	maskLen := func(m func(*EncodedStash) *bitpack.BitMask) func(*EncodedStash) {
		return func(e *EncodedStash) {
			mask := m(e)
			words := slices.Clone(mask.Words())
			mask.Reset(mask.Len() ^ 1)
			copy(mask.Words(), words)
		}
	}
	flipFormat := func(f *floatenc.Format) { *f ^= 1 }
	cases := []struct {
		tech Technique
		word string
		flip func(e *EncodedStash) // its own inverse
	}{
		{Binarize, "mask length", maskLen(func(e *EncodedStash) *bitpack.BitMask { return e.Mask })},
		{DPR, "packed format", func(e *EncodedStash) { flipFormat(&e.Packed.Format) }},
		{DPR, "packed count", func(e *EncodedStash) { e.Packed.N ^= 1 }},
		{ZVC, "packed format", func(e *EncodedStash) { flipFormat(&e.ZVC.Values.Format) }},
		{ZVC, "mask length", maskLen(func(e *EncodedStash) *bitpack.BitMask { return e.ZVC.Mask })},
		{ZVC, "packed count", func(e *EncodedStash) { e.ZVC.Values.N ^= 1 }},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/%s", tc.tech, tc.word), func(t *testing.T) {
			e, err := encodeFresh(c, &Assignment{Tech: tc.tech, Format: floatenc.FP16}, x)
			if err != nil {
				t.Fatal(err)
			}
			if e.Tech != tc.tech {
				t.Fatalf("encoded as %v", e.Tech)
			}
			c.Seal(e)
			tc.flip(e)
			if err := c.Verify(e); !errors.Is(err, ErrCorruptStash) {
				t.Errorf("Verify after the flip = %v, want ErrCorruptStash", err)
			}
			tc.flip(e)
			if err := c.Verify(e); err != nil {
				t.Errorf("Verify flipped back: %v", err)
			}
		})
	}
}

// TestDecodeShapeMismatch exercises the payload/shape guards that replace
// the old index panics on unsealed stashes.
func TestDecodeShapeMismatch(t *testing.T) {
	var c Codec
	e, err := encodeFresh(c, &Assignment{Tech: DPR, Format: floatenc.FP16}, tensor.New(16))
	if err != nil {
		t.Fatal(err)
	}
	e.Shape = tensor.Shape{32}
	if _, err := decodeFresh(c, e); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("DPR shape mismatch: %v", err)
	}

	e2, err := encodeFresh(c, &Assignment{Tech: ZVC, Format: floatenc.FP32}, denseWithNNZ(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	e2.Shape = tensor.Shape{8, 4}
	if _, err := decodeFresh(c, e2); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("ZVC shape mismatch: %v", err)
	}

	e3, err := encodeFresh(c, &Assignment{Tech: Binarize}, tensor.New(64))
	if err != nil {
		t.Fatal(err)
	}
	e3.Shape = tensor.Shape{65}
	if _, err := decodeFresh(c, e3); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("Binarize shape mismatch: %v", err)
	}
}
