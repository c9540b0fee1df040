package encoding

import (
	"math"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// Chunk-tail golden fixtures: sealed checksums and per-chunk CRCs for
// payload lengths congruent to 1, 63, 64 and 65 mod 768 — one element past
// a chunk boundary, one word minus a bit, exactly one word, and one word
// plus a bit. These are the ragged tails where a word-parallel kernel
// off-by-one (a bit leaked into the padding word, a short final word, a
// missed tail element) lands first. Sealing with a 768-element chunk size
// makes every length span a chunk boundary, and the rolled-up CRC pins
// every payload byte — mask words and packed words — without freezing full
// blobs. Frozen from the scalar kernels; the
// word-parallel rewrites must reproduce them bit for bit. Regenerate with
// `go run ./internal/goldengen` only for an intentional format break.

// tailInput rebuilds the deterministic ReLU-shaped fixture payload for
// length n (seeded by n, negatives clamped to zero).
func tailInput(n int) *tensor.Tensor {
	t := tensor.New(n)
	rng := tensor.NewRNG(uint64(n))
	for i := range t.Data {
		v := rng.Float32()*2 - 1
		if v < 0 {
			v = 0
		}
		t.Data[i] = v
	}
	return t
}

var goldenTails = []struct {
	n         int
	name      string
	checksum  uint32
	chunkCRCs []uint32
}{
	{769, "binarize", 0x208580aa, []uint32{0x4affafcf, 0x8c28b28a}},
	{769, "dpr-fp16", 0x9488f903, []uint32{0x4800600e, 0x48674bc7}},
	{769, "dpr-fp10", 0x8a5d25ad, []uint32{0x037629ee, 0x48674bc7}},
	{769, "dpr-fp8", 0xcc30aba6, []uint32{0xc33575c2, 0x48674bc7}},
	{769, "zvc-fp32", 0xbd1d6c60, []uint32{0xa45b51cd, 0xeb31c8d5}},
	{831, "binarize", 0x8ea4114b, []uint32{0xacfd48c9, 0x72371c90}},
	{831, "dpr-fp16", 0x01a5beb3, []uint32{0xc5eb7019, 0xf702e74b}},
	{831, "dpr-fp10", 0xc90e5ee3, []uint32{0x3c13aca6, 0xd11b3a96}},
	{831, "dpr-fp8", 0xe63f56d7, []uint32{0x6dd9b3f8, 0x0665d964}},
	{831, "zvc-fp32", 0xe44a9241, []uint32{0x390231b5, 0x88b003bf}},
	{832, "binarize", 0x1caba375, []uint32{0xaabd2c1e, 0x87a51973}},
	{832, "dpr-fp16", 0x81145b94, []uint32{0x427741ad, 0x7975f345}},
	{832, "dpr-fp10", 0xd064d2c9, []uint32{0xc2c5d550, 0x1879a7b7}},
	{832, "dpr-fp8", 0xdea11803, []uint32{0x96fd8039, 0x8d0100c4}},
	{832, "zvc-fp32", 0xc9c28a84, []uint32{0x58d3396c, 0x84430e30}},
	{833, "binarize", 0xa9b488ec, []uint32{0xde89784a, 0x2729868f}},
	{833, "dpr-fp16", 0xa4e32565, []uint32{0x7029473b, 0x50301730}},
	{833, "dpr-fp10", 0x3558274d, []uint32{0x58ff8940, 0x603b87dc}},
	{833, "dpr-fp8", 0xe388a796, []uint32{0x5775ff7f, 0x427f7641}},
	{833, "zvc-fp32", 0x7bda56e4, []uint32{0x377a2343, 0x78cbc1a3}},
}

// tailAssignment maps a fixture name to its encode assignment.
func tailAssignment(name string) *Assignment {
	switch name {
	case "binarize":
		return &Assignment{Tech: Binarize}
	case "dpr-fp16":
		return &Assignment{Tech: DPR, Format: floatenc.FP16}
	case "dpr-fp10":
		return &Assignment{Tech: DPR, Format: floatenc.FP10}
	case "dpr-fp8":
		return &Assignment{Tech: DPR, Format: floatenc.FP8}
	case "zvc-fp32":
		return &Assignment{Tech: ZVC, Format: floatenc.FP32}
	}
	return nil
}

// TestGoldenChunkTails re-encodes and seals every tail fixture and requires
// the checksum and per-chunk CRCs to match the frozen values exactly.
func TestGoldenChunkTails(t *testing.T) {
	cdc := Codec{ChunkElems: 768}
	for _, g := range goldenTails {
		e, err := encodeFresh(cdc, tailAssignment(g.name), tailInput(g.n))
		if err != nil {
			t.Fatalf("n=%d %s: %v", g.n, g.name, err)
		}
		cdc.Seal(e)
		if e.Checksum != g.checksum {
			t.Errorf("n=%d %s: checksum %#08x, want %#08x (payload bytes changed)",
				g.n, g.name, e.Checksum, g.checksum)
		}
		if len(e.ChunkCRCs) != len(g.chunkCRCs) {
			t.Fatalf("n=%d %s: %d chunk CRCs, want %d", g.n, g.name, len(e.ChunkCRCs), len(g.chunkCRCs))
		}
		for c, crc := range e.ChunkCRCs {
			if crc != g.chunkCRCs[c] {
				t.Errorf("n=%d %s: chunk %d CRC %#08x, want %#08x",
					g.n, g.name, c, crc, g.chunkCRCs[c])
			}
		}
	}
}

// TestGoldenChunkTailsRoundTrip decodes every tail fixture back to dense
// and checks it equals the quantized input — tail elements included, bit
// for bit.
func TestGoldenChunkTailsRoundTrip(t *testing.T) {
	cdc := Codec{ChunkElems: 768}
	for _, g := range goldenTails {
		in := tailInput(g.n)
		as := tailAssignment(g.name)
		e, err := encodeFresh(cdc, as, in)
		if err != nil {
			t.Fatalf("n=%d %s: %v", g.n, g.name, err)
		}
		cdc.Seal(e)
		out, err := decodeFresh(cdc, e)
		if err != nil {
			t.Fatalf("n=%d %s: decode: %v", g.n, g.name, err)
		}
		for i, v := range out.Data {
			var want float32
			switch as.Tech {
			case Binarize:
				if in.Data[i] > 0 {
					want = 1
				}
			default:
				// ZVC at FP32 is exact (Quantize is the identity);
				// layered DPR quantizes elementwise.
				want = as.Format.Quantize(in.Data[i])
			}
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("n=%d %s: decoded[%d] = %#08x, want %#08x",
					g.n, g.name, i, math.Float32bits(v), math.Float32bits(want))
			}
		}
	}
}
