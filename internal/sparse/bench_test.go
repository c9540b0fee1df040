package sparse

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks: the popcount-driven gather kernels next to their
// retained scalar references, reporting B/s over the dense FP32 side.
// `make bench-gate` parses the word/scalar pairs and fails the build when
// the speedup ratio or absolute throughput drops below the thresholds in
// bench_gate.json.

const benchElems = 1 << 20

func benchInput(density float64, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float32, benchElems)
	for i := range xs {
		if r.Float64() < density {
			xs[i] = float32(r.NormFloat64())
		}
	}
	return xs
}

func BenchmarkKernelCSREncode(b *testing.B) {
	xs := benchInput(0.5, 1) // ReLU-style ~50% sparsity
	var c CSR
	run := func(b *testing.B, enc func()) {
		b.SetBytes(benchElems * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc()
		}
	}
	b.Run("word", func(b *testing.B) {
		run(b, func() { EncodeCSRInto(&c, xs) })
	})
	b.Run("scalar", func(b *testing.B) {
		run(b, func() { _ = encodeCSRColsScalar(xs, NarrowCols) })
	})
}

func BenchmarkKernelCSRCount(b *testing.B) {
	xs := benchInput(0.5, 2)
	rows := (benchElems + NarrowCols - 1) / NarrowCols
	counts := make([]int32, rows)
	run := func(b *testing.B, count func(xs []float32, cols, r0, r1 int, counts []int32)) {
		b.SetBytes(benchElems * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count(xs, NarrowCols, 0, rows, counts)
		}
	}
	b.Run("word", func(b *testing.B) {
		run(b, func(xs []float32, cols, r0, r1 int, counts []int32) { CountRowNNZ(xs, cols, r0, r1, counts, 1) })
	})
	b.Run("scalar", func(b *testing.B) { run(b, countRowNNZScalar) })
}

func BenchmarkKernelCSRFill(b *testing.B) {
	xs := benchInput(0.5, 3)
	c := EncodeCSR(xs) // row pointers prefilled; fill overwrites in place
	run := func(b *testing.B, fill func(xs []float32, r0, r1 int)) {
		b.SetBytes(benchElems * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(xs, 0, c.Rows)
		}
	}
	b.Run("word", func(b *testing.B) { run(b, c.FillRows) })
	b.Run("scalar", func(b *testing.B) { run(b, c.fillRowsScalar) })
}

func BenchmarkKernelCSRDecode(b *testing.B) {
	c := EncodeCSR(benchInput(0.5, 4))
	dst := make([]float32, benchElems)
	run := func(b *testing.B, dec func(dst []float32, r0, r1 int)) {
		b.SetBytes(benchElems * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec(dst, 0, c.Rows)
		}
	}
	b.Run("word", func(b *testing.B) { run(b, c.DecodeRows) })
	b.Run("scalar", func(b *testing.B) { run(b, c.decodeRowsScalar) })
}
