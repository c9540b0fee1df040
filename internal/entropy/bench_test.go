package entropy

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"gist/internal/floatenc"
)

// Kernel benchmarks: the coder next to the frozen bit-serial reference, on
// one codec chunk of a stash — 98 304 elements of a seeded ~50 %-sparse ReLU
// map. Encode takes what the codec hands it, the FP32 chunk, and packs it to
// FP16 on the way to a block, so its B/s are over the FP32 input; decode
// reports B/s over the packed bytes it restores. `make bench-gate` parses
// the word/scalar pairs and fails the build when the speedup ratio or
// absolute throughput drops below the thresholds in bench_gate.json.

const benchElems = 128 * 768

// benchFloats returns the chunk's FP32 input.
func benchFloats() []float32 {
	r := rand.New(rand.NewSource(1))
	xs := make([]float32, benchElems)
	for i := range xs {
		if v := float32(r.NormFloat64()); v > 0 {
			xs[i] = v
		}
	}
	return xs
}

// packedBytes returns the little-endian bytes of p's words.
func packedBytes(dst []byte, p *floatenc.Packed) []byte {
	dst = dst[:0]
	for _, w := range p.Words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

func BenchmarkKernelEntropyEncode(b *testing.B) {
	xs := benchFloats()
	n := len(xs)
	blk := make([]byte, MaxEncodedLen(floatenc.FP16.ValuesPerWord()*n))
	run := func(b *testing.B, encode func()) {
		b.SetBytes(int64(4 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode()
		}
	}
	b.Run("word", func(b *testing.B) {
		var toks []byte
		run(b, func() {
			var size int
			size, toks = Plan(blk, toks, floatenc.FP16, xs)
			Emit(blk[:size], toks)
		})
	})
	// The encode the codec ran before the single pass: pack the chunk into a
	// retained FP16 copy, then tokenise it once to plan and again to emit.
	b.Run("twophase", func(b *testing.B) {
		p := floatenc.NewPacked(floatenc.FP16, n)
		run(b, func() {
			p.Reset(floatenc.FP16, n)
			p.EncodeRange(xs, 0, n)
			size := twoPhasePlan(blk, p.Words, 4*len(p.Words))
			twoPhaseEmit(blk[:size], p.Words, 4*len(p.Words))
		})
	})
	b.Run("scalar", func(b *testing.B) {
		p := floatenc.NewPacked(floatenc.FP16, n)
		var raw, out []byte
		run(b, func() {
			p.Reset(floatenc.FP16, n)
			p.EncodeRange(xs, 0, n)
			raw = packedBytes(raw, p)
			out = refEncode(out[:0], raw)
		})
	})
}

func BenchmarkKernelEntropyDecode(b *testing.B) {
	raw := packedBytes(nil, floatenc.EncodeSlice(floatenc.FP16, benchFloats()))
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
