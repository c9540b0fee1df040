package layers

import (
	"testing"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// Gate-kernel benchmarks: the branch-free ReLU and tiling MaxPool kernels
// (`word`) against the loops they replaced (`scalar`) on random-sign data,
// where a branch on the sign mispredicts about half the time. ReLU's scalar
// leg is the frozen reference of relu_diff_test.go; MaxPool's is the
// general windowed kernel, which overlapping and padded pools still run.
// MB/s is over the input map. `make bench-gate` checks the word/scalar
// ratios against bench_gate.json.

// gateBenchShape is StashNet's widest map, the input of its ReLUs and of
// its first pool.
var gateBenchShape = []int{4, 8, 64, 64}

func benchGateLeg(b *testing.B, in *tensor.Tensor, f func()) {
	b.SetBytes(in.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

func BenchmarkKernelReLUFwd(b *testing.B) {
	op := NewReLU()
	x := randTensor(1, gateBenchShape...)
	ctx := &FwdCtx{In: []*tensor.Tensor{x}, Out: tensor.New(gateBenchShape...)}
	b.Run("word", func(b *testing.B) { benchGateLeg(b, x, func() { op.Forward(ctx) }) })
	b.Run("scalar", func(b *testing.B) { benchGateLeg(b, x, func() { op.forwardRef(ctx) }) })
}

func BenchmarkKernelReLUBwd(b *testing.B) {
	op := NewReLU()
	y := randTensor(1, gateBenchShape...)
	ctx := &BwdCtx{Out: y, DOut: randTensor(2, gateBenchShape...),
		DIn: []*tensor.Tensor{tensor.New(gateBenchShape...)}}
	b.Run("word", func(b *testing.B) { benchGateLeg(b, y, func() { op.Backward(ctx) }) })
	b.Run("scalar", func(b *testing.B) { benchGateLeg(b, y, func() { op.backwardRef(ctx) }) })
}

func BenchmarkKernelMaxPoolFwd(b *testing.B) {
	for _, s := range []struct {
		name  string
		shape []int
	}{
		{"vgg2x2", []int{2, 8, 32, 32}}, // TinyVGG's first pool
		{"stash2x2", gateBenchShape},
	} {
		op := NewMaxPool(2, 2, 0)
		x := randTensor(1, s.shape...)
		outShape, err := op.OutShape([]tensor.Shape{x.Shape})
		if err != nil {
			b.Fatal(err)
		}
		y := tensor.New(outShape...)
		ctx := &FwdCtx{In: []*tensor.Tensor{x}, Out: y, Aux: map[string]any{}}
		op.Forward(ctx) // size the argmax map once, as a training step does
		argmax := ctx.Aux[auxKeyArgmax].(*bitpack.NibbleArray)
		b.Run(s.name+"/word", func(b *testing.B) { benchGateLeg(b, x, func() { op.Forward(ctx) }) })
		b.Run(s.name+"/scalar", func(b *testing.B) {
			benchGateLeg(b, x, func() {
				argmax.Reset(y.NumElements())
				op.forwardWindows(x, y, argmax)
			})
		})
	}
}

// BenchmarkReLUBwdMaskVsY measures the two ways a ReLU's backward pass can
// gate dY on StashNet's 64×64 planes at about half density: through the
// sign mask a ZVC or Binarize stash holds (OutMask, ApplyGate), and through
// the FP32 Y a decoded stash hands it. At half density nearly every 64-bit
// mask word is mixed, so ApplyGate runs its per-element path on almost
// every word. MB/s is over the FP32 map. Not a bench-gate row.
func BenchmarkReLUBwdMaskVsY(b *testing.B) {
	op := NewReLU()
	y := randTensor(1, gateBenchShape...)
	op.Forward(&FwdCtx{In: []*tensor.Tensor{y}, Out: y}) // Y = max(U(-1, 1), 0)
	dy, dx := randTensor(2, gateBenchShape...), tensor.New(gateBenchShape...)
	byY := &BwdCtx{Out: y, DOut: dy, DIn: []*tensor.Tensor{dx}}
	byMask := &BwdCtx{OutMask: bitpack.FromPositive(y.Data), DOut: dy, DIn: []*tensor.Tensor{dx}}
	b.Run("mask", func(b *testing.B) { benchGateLeg(b, y, func() { op.Backward(byMask) }) })
	b.Run("y", func(b *testing.B) { benchGateLeg(b, y, func() { op.Backward(byY) }) })
}
