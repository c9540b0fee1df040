// Command goldengen regenerates the frozen byte fixtures embedded in
// internal/floatenc/golden_test.go and internal/encoding/golden_test.go:
// the packed FP16/FP10/FP8 word streams and the sealed EncodedStash
// "GST4" wire blobs. Run it only when intentionally breaking the encoder
// bit layout or the stash wire format, and paste the printed values into
// those tests — the fixtures exist precisely so such breaks are explicit.
package main

import (
	"fmt"
	"math"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/stashstore"
	"gist/internal/tensor"
)

func main() {
	// floatenc golden inputs: exercises zero, signed zero, exact powers of
	// two, a repeating fraction, denormal/underflow, overflow clamp, and
	// sign handling in every format.
	in := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		0.5, -0.25, 2.0 / 3.0, -3.14159,
		65504, -65504, 1e8, -1e8,
		6.1e-5, -6.1e-5, 1e-8, 5.9604645e-8,
	}
	fmt.Print("input bits: ")
	for _, v := range in {
		fmt.Printf("0x%08x, ", math.Float32bits(v))
	}
	fmt.Println()
	for _, f := range []floatenc.Format{floatenc.FP16, floatenc.FP10, floatenc.FP8} {
		p := floatenc.EncodeSlice(f, in)
		fmt.Printf("%s words: ", f)
		for _, w := range p.Words {
			fmt.Printf("0x%08x, ", w)
		}
		fmt.Println()
		dec := p.DecodeSlice(make([]float32, len(in)))
		fmt.Printf("%s decoded bits: ", f)
		for _, v := range dec {
			fmt.Printf("0x%08x, ", math.Float32bits(v))
		}
		fmt.Println()
	}

	// EncodedStash wire blob: a deterministic ReLU-like feature map
	// (seeded noise, negatives clamped to zero => ~50% sparsity).
	t := tensor.New(2, 3, 4, 4)
	rng := tensor.NewRNG(12345)
	for i := range t.Data {
		v := rng.Float32()*2 - 1
		if v < 0 {
			v = 0
		}
		t.Data[i] = v
	}
	nz := 0
	for _, v := range t.Data {
		if v != 0 {
			nz++
		}
	}
	fmt.Printf("tensor nonzeros: %d/%d\n", nz, len(t.Data))
	var cdc encoding.Codec
	d := sealed(cdc, &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP10}, t)
	blob2, err := d.MarshalBinary()
	if err != nil {
		panic(err)
	}
	fmt.Printf("dpr checksum: 0x%08x len %d\n", d.Checksum, len(blob2))
	fmt.Printf("dpr blob: %x\n", blob2)

	// ZVC on the same 96-element feature map.
	z := sealed(cdc, &encoding.Assignment{Tech: encoding.ZVC, Format: floatenc.FP32}, t)
	zblob, err := z.MarshalBinary()
	if err != nil {
		panic(err)
	}
	fmt.Printf("zvc checksum: 0x%08x len %d\n", z.Checksum, len(zblob))
	fmt.Printf("zvc blob: %x\n", zblob)

	// ZVC with its values packed at FP16 on the same map: 48 nonzeros, so
	// the value words hold two values each.
	z16 := sealed(cdc, &encoding.Assignment{Tech: encoding.ZVC, Format: floatenc.FP16}, t)
	z16blob, err := z16.MarshalBinary()
	if err != nil {
		panic(err)
	}
	fmt.Printf("zvc-fp16 checksum: 0x%08x len %d\n", z16.Checksum, len(z16blob))
	fmt.Printf("zvc-fp16 blob: %x\n", z16blob)

	tailFixtures()
	spillPages()
}

// spillPages prints the sealed "GSTP" spill-page fixtures that seed
// internal/stashstore's golden test and FuzzReadSpillPage corpus: one page
// per technique family, wrapping the stash blobs printed above.
func spillPages() {
	fmt.Println("\n// --- GSTP spill-page fixtures ---")
	t := tensor.New(2, 3, 4, 4)
	rng := tensor.NewRNG(12345)
	for i := range t.Data {
		v := rng.Float32()*2 - 1
		if v < 0 {
			v = 0
		}
		t.Data[i] = v
	}
	cases := []struct {
		name string
		as   *encoding.Assignment
	}{
		{"zvc-fp16", &encoding.Assignment{Tech: encoding.ZVC, Format: floatenc.FP16}},
		{"zvc-fp32", &encoding.Assignment{Tech: encoding.ZVC, Format: floatenc.FP32}},
	}
	var cdc encoding.Codec
	for i, c := range cases {
		page, err := stashstore.AppendPage(nil, uint32(i+1), sealed(cdc, c.as, t))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s page len %d: %x\n", c.name, len(page), page)
	}
	exact := &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP32}
	page, err := stashstore.AppendPage(nil, 7, sealed(cdc, exact, t))
	if err != nil {
		panic(err)
	}
	fmt.Printf("dense-fp32 page len %d: %x\n", len(page), page)
}

// tailFixtures prints the chunk-tail golden fixtures embedded in
// internal/encoding/golden_tail_test.go: sealed checksums and per-chunk
// CRCs for payload lengths congruent to 1, 63, 64 and 65 mod 768 — the
// ragged tails where a word-parallel kernel off-by-one would land. Sealed
// with a 768-element chunk size so every length spans a chunk boundary,
// and the CRC pins every payload byte (mask words, packed words) without
// freezing full blobs.
func tailFixtures() {
	fmt.Println("\n// --- chunk-tail fixtures (lengths ≡ 1, 63, 64, 65 mod 768) ---")
	cdc := encoding.Codec{ChunkElems: 768}
	for _, n := range []int{769, 831, 832, 833} {
		t := tensor.New(n)
		rng := tensor.NewRNG(uint64(n))
		for i := range t.Data {
			v := rng.Float32()*2 - 1
			if v < 0 {
				v = 0
			}
			t.Data[i] = v
		}
		cases := []struct {
			name string
			as   *encoding.Assignment
		}{
			{"binarize", &encoding.Assignment{Tech: encoding.Binarize}},
			{"dpr-fp16", &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP16}},
			{"dpr-fp10", &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP10}},
			{"dpr-fp8", &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP8}},
			{"zvc-fp32", &encoding.Assignment{Tech: encoding.ZVC, Format: floatenc.FP32}},
		}
		for _, c := range cases {
			e := sealed(cdc, c.as, t)
			fmt.Printf("{%d, %q, 0x%08x, []uint32{", n, c.name, e.Checksum)
			for _, crc := range e.ChunkCRCs {
				fmt.Printf("0x%08x, ", crc)
			}
			fmt.Println("}},")
		}
	}
}

// sealed encodes t per as into a fresh container and seals it.
func sealed(cdc encoding.Codec, as *encoding.Assignment, t *tensor.Tensor) *encoding.EncodedStash {
	e := &encoding.EncodedStash{}
	if err := cdc.EncodeStashInto(e, as, t); err != nil {
		panic(fmt.Sprintf("%v/%s over %v: %v", as.Tech, as.Format, t.Shape, err))
	}
	cdc.Seal(e)
	return e
}
