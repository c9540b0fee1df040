package encoding

import (
	"errors"
	"testing"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/sparse"
	"gist/internal/tensor"
)

// denseWithNNZ builds an n-element tensor whose first nnz elements are 1
// (exact in every DPR format) and the rest zero. CSR's footprint depends
// only on the non-zero count, so the layout is irrelevant.
func denseWithNNZ(n, nnz int) *tensor.Tensor {
	x := tensor.New(n)
	for i := 0; i < nnz; i++ {
		x.Data[i] = 1
	}
	return x
}

// TestSSDCFallbackAroundBreakEven pins the runtime SSDC→dense degradation
// threshold exactly at the narrow-CSR break-even point, for both plain
// SSDC (FP32 values) and SSDC with DPR layered on the value array. With
// n = 4096 and 16 narrow rows the RowPtr overhead is 68 bytes, so:
//
//	FP32: effective = 5·nnz + 68, dense = 4n = 16384  → break-even nnz 3263/3264
//	FP16: effective = 3·nnz + 68, dense = 2n = 8192   → break-even nnz 2706/2708
//
// (~20% and ~33% sparsity, matching sparse.BreakEvenSparsity.)
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
			as := &Assignment{Tech: SSDC, Format: tc.format}
			x := denseWithNNZ(n, tc.nnz)
			e, fellBack, err := EncodeStashAdaptive(as, x)
			if err != nil {
				t.Fatalf("EncodeStashAdaptive: %v", err)
			}
			if fellBack != tc.wantFallback {
				t.Fatalf("nnz %d: fellBack = %v, want %v", tc.nnz, fellBack, tc.wantFallback)
			}
			// The strict encoder must agree with the adaptive one.
			_, strictErr := EncodeStash(as, x)
			if gotErr := errors.Is(strictErr, ErrStashTooLarge); gotErr != tc.wantFallback {
				t.Fatalf("EncodeStash err = %v, want ErrStashTooLarge: %v", strictErr, tc.wantFallback)
			}
			if tc.wantFallback {
				if e.Tech != DPR {
					t.Fatalf("fallback stash tech = %v, want DPR", e.Tech)
				}
				if want := tc.format.PackedBytes(n); e.Bytes() != want {
					t.Fatalf("fallback bytes = %d, want dense %d", e.Bytes(), want)
				}
			} else if e.Tech != SSDC {
				t.Fatalf("kept stash tech = %v, want SSDC", e.Tech)
			}
			// Either way the stash must decode to the format-quantized input.
			dec, err := e.Decode()
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			for i, v := range x.Data {
				if dec.Data[i] != tc.format.Quantize(v) {
					t.Fatalf("decode[%d] = %v, want %v", i, dec.Data[i], tc.format.Quantize(v))
				}
			}
		})
	}
}

// TestFallbackThresholdMatchesModel cross-checks the runtime decision
// against the planner's byte model on randomized zero patterns.
func TestFallbackThresholdMatchesModel(t *testing.T) {
	const n = 2048
	as := &Assignment{Tech: SSDC, Format: floatenc.FP32}
	for _, sparsity := range []float64{0, 0.1, 0.19, 0.21, 0.3, 0.6, 0.95} {
		x := tensor.New(n)
		r := tensor.NewRNG(uint64(1000 * sparsity))
		nnz := 0
		for i := range x.Data {
			if r.Float64() >= sparsity {
				x.Data[i] = 1
				nnz++
			}
		}
		_, fellBack, err := EncodeStashAdaptive(as, x)
		if err != nil {
			t.Fatal(err)
		}
		csr := sparse.EncodeCSR(x.Data)
		wantFallback := csr.Bytes() >= 4*n
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
	// sum is the sealed checksum, captured at the commit before the layout
	// engine replaced the per-technique checksum code.
	sum uint32
}

// layoutEdgeCases builds payloads no encoder produces but a deserializer or
// a test can: empty stashes of every technique (SSDC's must stay on the
// serial checksum, which covers RowPtr's leading zero; the others roll up to
// the bare header CRC), an empty ZVC mask that still carries values, a DPR
// stash with a garbage format, and an entropy block table that does not
// add up to the stream.
func layoutEdgeCases() []layoutEdgeCase {
	empty := tensor.Shape{0}
	return []layoutEdgeCase{
		{"binarize-empty", &EncodedStash{Tech: Binarize, Shape: empty, Mask: bitpack.NewBitMask(0)}, true, 0x532d1c4a},
		{"ssdc-empty", &EncodedStash{Tech: SSDC, Shape: empty, CSR: sparse.EncodeCSR(nil)}, false, 0x92f523d7},
		{"dpr-empty", &EncodedStash{Tech: DPR, Shape: empty, Packed: floatenc.NewPacked(floatenc.FP16, 0)}, true, 0x31ceb42a},
		{"zvc-empty", &EncodedStash{Tech: ZVC, Shape: empty, ZVC: &ZVCPayload{Mask: bitpack.NewBitMask(0)}}, true, 0xa79b98ba},
		{"entropy-empty", &EncodedStash{Tech: Entropy, Shape: empty, Ent: &EntropyPayload{Format: floatenc.FP16}}, true, 0xda61ea37},
		{"zvc-empty-mask-with-values", &EncodedStash{Tech: ZVC, Shape: empty,
			ZVC: &ZVCPayload{Mask: bitpack.NewBitMask(0), Values: []float32{1.5, -2}}}, false, 0xbbdc9e9c},
		{"dpr-garbage-format", &EncodedStash{Tech: DPR, Shape: tensor.Shape{4},
			Packed: &floatenc.Packed{Format: floatenc.Format(77), N: 4, Words: []uint32{1, 2}}}, false, 0x24914d61},
		{"entropy-lens-short-of-stream", &EncodedStash{Tech: Entropy, Shape: tensor.Shape{4},
			Ent: &EntropyPayload{Format: floatenc.FP16, N: 4, Lens: []uint32{3}, Stream: []byte{1, 2, 3, 4, 5}}}, false, 0xab4cfc78},
	}
}

// TestSealVerifyDetectsFlipsInEverySegment flips a bit in each payload
// segment of each technique and checks the CRC catches all of them.
func TestSealVerifyDetectsFlipsInEverySegment(t *testing.T) {
	mk := func(tech Technique, f floatenc.Format) *EncodedStash {
		x := tensor.New(1000)
		r := tensor.NewRNG(9)
		for i := range x.Data {
			if r.Float64() > 0.7 {
				x.Data[i] = r.Float32() + 0.5
			}
		}
		e, err := EncodeStash(&Assignment{Tech: tech, Format: f}, x)
		if err != nil {
			t.Fatalf("EncodeStash(%v): %v", tech, err)
		}
		e.Seal()
		return e
	}

	t.Run("unsealed-verifies-trivially", func(t *testing.T) {
		e, _ := EncodeStash(&Assignment{Tech: DPR, Format: floatenc.FP16}, tensor.New(8))
		if e.Sealed() {
			t.Fatal("fresh stash must not be sealed")
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("unsealed Verify: %v", err)
		}
	})

	t.Run("sealed-clean-verifies", func(t *testing.T) {
		for _, tech := range []Technique{Binarize, SSDC, DPR} {
			e := mk(tech, floatenc.FP16)
			if err := e.Verify(); err != nil {
				t.Fatalf("%v: clean Verify: %v", tech, err)
			}
			if _, err := e.Decode(); err != nil {
				t.Fatalf("%v: clean Decode: %v", tech, err)
			}
		}
	})

	t.Run("flip-anywhere-detected", func(t *testing.T) {
		for _, tech := range []Technique{Binarize, SSDC, DPR} {
			e := mk(tech, floatenc.FP16)
			bits := e.PayloadBits()
			if bits == 0 {
				t.Fatalf("%v: empty payload", tech)
			}
			// Probe a spread of bit positions including both ends: for SSDC
			// this crosses the RowPtr, ColIdx and Values segments.
			for _, bit := range []int{0, 1, bits / 4, bits / 2, 3 * bits / 4, bits - 1} {
				e.FlipBit(bit)
				if err := e.Verify(); !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("%v: flip of bit %d/%d not detected: %v", tech, bit, bits, err)
				}
				if _, err := e.Decode(); !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("%v: Decode after flip: %v", tech, err)
				}
				e.FlipBit(bit) // restore
				if err := e.Verify(); err != nil {
					t.Fatalf("%v: flip-back of bit %d must verify: %v", tech, bit, err)
				}
			}
		}
	})

	t.Run("layout-edge-cases", func(t *testing.T) {
		for _, tc := range layoutEdgeCases() {
			e := tc.e
			if _, _, ok := DefaultCodec().chunkChecksums(e); ok != tc.chunkable {
				t.Fatalf("%s: chunkable = %v, want %v", tc.name, ok, tc.chunkable)
			}
			e.Seal()
			if e.Checksum != tc.sum || e.checksum() != tc.sum || len(e.ChunkCRCs) != 0 {
				t.Fatalf("%s: sealed %#08x (serial oracle %#08x, %d chunk CRCs), want %#08x and none",
					tc.name, e.Checksum, e.checksum(), len(e.ChunkCRCs), tc.sum)
			}
			if err := e.Verify(); err != nil {
				t.Fatalf("%s: clean Verify: %v", tc.name, err)
			}
			for bit := 0; bit < e.PayloadBits(); bit++ {
				e.FlipBit(bit)
				err := e.Verify()
				if !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("%s: flip of bit %d not detected: %v", tc.name, bit, err)
				}
				if _, ok := CorruptedChunk(err); ok {
					t.Fatalf("%s: flip of bit %d names a chunk in a stash without chunk CRCs: %v", tc.name, bit, err)
				}
				e.FlipBit(bit)
			}
			e.Shape = tensor.Shape{1} // the header is under the seal too
			if err := e.Verify(); !errors.Is(err, ErrCorruptStash) {
				t.Fatalf("%s: shape change not detected: %v", tc.name, err)
			}
		}
	})
}

// TestDecodeShapeMismatch exercises the payload/shape guards that replace
// the old index panics on unsealed stashes.
func TestDecodeShapeMismatch(t *testing.T) {
	e, err := EncodeStash(&Assignment{Tech: DPR, Format: floatenc.FP16}, tensor.New(16))
	if err != nil {
		t.Fatal(err)
	}
	e.Shape = tensor.Shape{32}
	if _, err := e.Decode(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("DPR shape mismatch: %v", err)
	}

	e2, err := EncodeStash(&Assignment{Tech: SSDC, Format: floatenc.FP32}, denseWithNNZ(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	e2.Shape = tensor.Shape{8, 4}
	if _, err := e2.Decode(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("SSDC shape mismatch: %v", err)
	}

	e3, err := EncodeStash(&Assignment{Tech: Binarize}, tensor.New(64))
	if err != nil {
		t.Fatal(err)
	}
	e3.Shape = tensor.Shape{65}
	if _, err := e3.Decode(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("Binarize shape mismatch: %v", err)
	}
}
