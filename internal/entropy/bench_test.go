package entropy

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"gist/internal/floatenc"
)

// Kernel benchmarks: the table-driven coder next to the frozen bit-serial
// reference, on what one codec chunk of a stash hands the stage — 98 304
// elements of a seeded ~50 %-sparse ReLU map, FP16-packed — reporting B/s
// over the packed bytes. `make bench-gate` parses the word/scalar pairs
// and fails the build when the speedup ratio or absolute throughput drops
// below the thresholds in bench_gate.json.

const benchElems = 128 * 768

// benchChunk returns the chunk as packed words and as the bytes they
// serialise to.
func benchChunk() (words []uint32, raw []byte) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float32, benchElems)
	for i := range xs {
		if v := float32(r.NormFloat64()); v > 0 {
			xs[i] = v
		}
	}
	words = floatenc.EncodeSlice(floatenc.FP16, xs).Words
	raw = make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(raw[4*i:], w)
	}
	return words, raw
}

func BenchmarkKernelEntropyEncode(b *testing.B) {
	words, raw := benchChunk()
	b.Run("word", func(b *testing.B) {
		blk := make([]byte, 0, MaxEncodedLen(len(raw)))
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk = blk[:Plan(blk[:TableBytes], words)]
			Emit(blk, words)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		blk := make([]byte, 0, MaxEncodedLen(len(raw)))
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk = refEncode(blk[:0], raw)
		}
	})
}

func BenchmarkKernelEntropyDecode(b *testing.B) {
	_, raw := benchChunk()
	blk := Encode(nil, raw)
	out := make([]byte, len(raw))
	run := func(b *testing.B, decode func(dst, src []byte) error) {
		b.SetBytes(int64(len(raw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := decode(out, blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("word", func(b *testing.B) { run(b, Decode) })
	b.Run("scalar", func(b *testing.B) { run(b, refDecode) })
}
