package layers

import (
	"testing"

	"gist/internal/tensor"
)

// benchConvCase builds seeded forward and backward contexts for one shape.
func benchConvCase(cc convCase) (*Conv2D, *FwdCtx, *BwdCtx) {
	op := &Conv2D{OutC: cc.outC, KH: cc.kh, KW: cc.kw, Stride: cc.stride, Pad: cc.pad}
	x := randTensor(1, cc.n, cc.inC, cc.h, cc.w)
	params := []*tensor.Tensor{randTensor(2, cc.outC, cc.inC, cc.kh, cc.kw), randTensor(3, cc.outC)}
	outShape, err := op.OutShape([]tensor.Shape{x.Shape})
	if err != nil {
		panic(err)
	}
	fwd := &FwdCtx{In: []*tensor.Tensor{x}, Params: params, Out: tensor.New(outShape...)}
	bwd := &BwdCtx{In: []*tensor.Tensor{x}, Params: params,
		DOut:    randTensor(4, outShape...),
		DIn:     []*tensor.Tensor{tensor.New(x.Shape...)},
		DParams: []*tensor.Tensor{tensor.New(params[0].Shape...), tensor.New(params[1].Shape...)}}
	return op, fwd, bwd
}

// Direct-convolution kernel benchmarks: the row-sweep kernels (`word`)
// against the frozen per-element reference (`scalar`) at the two shapes the
// benchmark's workloads spend their steps in — TinyVGG conv2 through the
// three-tap row kernel and StashNet's convolutions through the pointwise
// one. MMAC/s counts forward multiply-accumulates in both directions (the
// backward pass does twice that work), matching layers.conv_fwd_mmac_per_s.
// `make bench-gate` checks the word/scalar ratios against bench_gate.json.

var directBenchShapes = []struct {
	name string
	cc   convCase
}{
	{"vgg3x3", convCase{8, 3, 3, 1, 1, 2, 8, 32, 32}},
	{"stash1x1", convCase{8, 1, 1, 1, 0, 4, 8, 64, 64}},
}

// benchDirectLeg times f and reports MMAC/s beside B/s over the input.
func benchDirectLeg(b *testing.B, op *Conv2D, in *tensor.Tensor, f func()) {
	macs := float64(op.FLOPs([]tensor.Shape{in.Shape})) / 2
	b.SetBytes(in.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e6, "MMAC/s")
}

func BenchmarkKernelConvDirectFwd(b *testing.B) {
	for _, s := range directBenchShapes {
		op, fwd, _ := benchConvCase(s.cc)
		b.Run(s.name+"/word", func(b *testing.B) { benchDirectLeg(b, op, fwd.In[0], func() { op.forwardDirect(fwd) }) })
		b.Run(s.name+"/scalar", func(b *testing.B) { benchDirectLeg(b, op, fwd.In[0], func() { op.forwardDirectRef(fwd) }) })
	}
}

func BenchmarkKernelConvDirectBwd(b *testing.B) {
	for _, s := range directBenchShapes {
		op, _, bwd := benchConvCase(s.cc)
		b.Run(s.name+"/word", func(b *testing.B) { benchDirectLeg(b, op, bwd.In[0], func() { op.backwardDirect(bwd) }) })
		b.Run(s.name+"/scalar", func(b *testing.B) { benchDirectLeg(b, op, bwd.In[0], func() { op.backwardDirectRef(bwd) }) })
	}
}
