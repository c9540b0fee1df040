package layers

import (
	"fmt"
	"math"
	"testing"
	"time"

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

// namedCase is a benchmark shape and the name its rows carry.
type namedCase struct {
	name string
	cc   convCase
}

var directBenchShapes = []namedCase{
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

// The vgg3x3-sparse row runs forward on the wall's post-ReLU input
// (makeMap's mapSparse, two thirds zeros), whose planes the three-tap
// shape scatters. The reference multiplies every zero, so this ratio sits
// above the dense row's.
func BenchmarkKernelConvDirectFwd(b *testing.B) {
	for _, s := range directBenchShapes {
		op, fwd, _ := benchConvCase(s.cc)
		b.Run(s.name+"/word", func(b *testing.B) { benchDirectLeg(b, op, fwd.In[0], func() { op.forwardDirect(fwd) }) })
		b.Run(s.name+"/scalar", func(b *testing.B) { benchDirectLeg(b, op, fwd.In[0], func() { op.forwardDirectRef(fwd) }) })
	}
	op, fwd, _ := benchConvCase(directBenchShapes[0].cc)
	fwd.In[0] = makeMap(mapSparse, 0, 1, fwd.In[0].Shape)
	b.Run("vgg3x3-sparse/word", func(b *testing.B) { benchDirectLeg(b, op, fwd.In[0], func() { op.forwardDirect(fwd) }) })
	b.Run("vgg3x3-sparse/scalar", func(b *testing.B) { benchDirectLeg(b, op, fwd.In[0], func() { op.forwardDirectRef(fwd) }) })
}

// The -sparse rows run backward on the wall's gradients (makeMap): the
// post-ReLU regime on the three-tap shape and the post-MaxPool one on the
// pointwise shape, where the sparse path takes every plane. The reference
// skips the same zeros, so these ratios sit below the dense rows'.
var sparseBenchDY = map[string]mapKind{"vgg3x3": mapSparse, "stash1x1": mapPooled}

func BenchmarkKernelConvDirectBwd(b *testing.B) {
	for _, s := range directBenchShapes {
		op, _, bwd := benchConvCase(s.cc)
		b.Run(s.name+"/word", func(b *testing.B) { benchDirectLeg(b, op, bwd.In[0], func() { op.backwardDirect(bwd) }) })
		b.Run(s.name+"/scalar", func(b *testing.B) { benchDirectLeg(b, op, bwd.In[0], func() { op.backwardDirectRef(bwd) }) })
	}
	for _, s := range directBenchShapes {
		op, _, bwd := benchConvCase(s.cc)
		bwd.DOut = makeMap(sparseBenchDY[s.name], 0, 4, bwd.DOut.Shape)
		name := s.name + "-sparse"
		b.Run(name+"/word", func(b *testing.B) { benchDirectLeg(b, op, bwd.In[0], func() { op.backwardDirect(bwd) }) })
		b.Run(name+"/scalar", func(b *testing.B) { benchDirectLeg(b, op, bwd.In[0], func() { op.backwardDirectRef(bwd) }) })
	}
}

// densityShapes are the shapes the density sweeps run: the three TinyVGG
// sizes through the three-tap kernels.
var densityShapes = []namedCase{
	{"vgg3x3", directBenchShapes[0].cc},
	{"vgg-conv4", convCase{16, 3, 3, 1, 1, 2, 16, 16, 16}},
	{"vgg-conv6", convCase{32, 3, 3, 1, 1, 2, 32, 8, 8}},
}

// densityPcts are the nonzero shares, in percent, the sweeps run at.
var densityPcts = []int{5, 10, 20, 30, 40, 50, 60, 70, 100}

// benchDensity times the dense (leg false) and the sparse (leg true) path
// back to back in each iteration and reports the ratio of their fastest
// times (sparse/dense below 1: the sparse path wins), so drift in the
// machine's speed between minutes cancels.
func benchDensity(b *testing.B, run func(sparse bool)) {
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for i := 0; i < b.N; i++ {
		for leg := range best {
			start := time.Now()
			run(leg == 1)
			best[leg] = min(best[leg], time.Since(start))
		}
	}
	b.ReportMetric(float64(best[0].Nanoseconds())/1e3, "dense-µs")
	b.ReportMetric(float64(best[1])/float64(best[0]), "sparse/dense")
}

// BenchmarkConvFwdDensity is the sweep the forward plane walk's threshold
// was read from: the dense three-tap kernel and the scatter forced on
// every input plane, at a range of nonzero shares. Ungated; run it with
// -benchtime 40x.
func BenchmarkConvFwdDensity(b *testing.B) {
	for _, s := range densityShapes {
		op, fwd, _ := benchConvCase(s.cc)
		for _, pct := range densityPcts {
			fwd.In[0] = makeMap(mapFraction, 1-float64(pct)/100, 1, fwd.In[0].Shape)
			b.Run(fmt.Sprintf("%s/nz%d", s.name, pct), func(b *testing.B) {
				benchDensity(b, func(sparse bool) { op.forwardPlanesForced(fwd, sparse) })
			})
		}
	}
}

// forwardPlanesForced is forwardDirect's plane walk with every input plane
// sent one way, and the bias fill dropped.
func (c *Conv2D) forwardPlanesForced(ctx *FwdCtx, sparse bool) {
	x, w, y := ctx.In[0], ctx.Params[0].Data, ctx.Out
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := ih * iw
	for ni := 0; ni < n; ni++ {
		xs := x.Data[ni*inC*plane:][:inC*plane]
		ys := y.Data[ni*c.OutC*plane:][:c.OutC*plane]
		if !sparse {
			c.forwardRun(ys, xs, w, 0, inC, ih, iw)
			continue
		}
		for ic := 0; ic < inC; ic++ {
			xp := xs[ic*plane:][:plane]
			c.scatterPlane(ys, xp, countNonzero(xp), w, ic, inC, iw)
		}
	}
}

// BenchmarkConvBwdDensity is the sweep sparsePlane's threshold was read
// from: the dense and the sparse kernels forced on every dY plane, at a
// range of nonzero shares, for the shapes the workloads' convolutions
// run. Ungated; run it with -benchtime 40x.
func BenchmarkConvBwdDensity(b *testing.B) {
	shapes := append(densityShapes[:len(densityShapes):len(densityShapes)],
		directBenchShapes[1], namedCase{"5x5s2", convCase{8, 5, 5, 2, 2, 2, 8, 32, 32}})
	for _, s := range shapes {
		op, _, bwd := benchConvCase(s.cc)
		for _, pct := range densityPcts {
			bwd.DOut = makeMap(mapFraction, 1-float64(pct)/100, 4, bwd.DOut.Shape)
			b.Run(fmt.Sprintf("%s/nz%d", s.name, pct), func(b *testing.B) {
				benchDensity(b, func(sparse bool) { op.backwardPlanes(bwd, sparse) })
			})
		}
	}
}

// backwardPlanes is backwardDirect with the path forced for every plane
// and dB dropped.
func (c *Conv2D) backwardPlanes(ctx *BwdCtx, sparse bool) {
	x, w, dy := ctx.In[0], ctx.Params[0], ctx.DOut
	dx, dw := ctx.DIn[0], ctx.DParams[0]
	n, inC, ih, iw := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	image, plane, filter := inC*ih*iw, oh*ow, inC*c.KH*c.KW
	dx.Zero()
	dw.Zero()
	for ni := 0; ni < n; ni++ {
		xs, dxs := x.Data[ni*image:][:image], dx.Data[ni*image:][:image]
		for oc := 0; oc < c.OutC; oc++ {
			g := dy.Data[(ni*c.OutC+oc)*plane:][:plane]
			ws, dws := w.Data[oc*filter:][:filter], dw.Data[oc*filter:][:filter]
			if sparse {
				c.backwardSparse(g, countNonzero(g), xs, dxs, ws, dws, 0, ih, iw, oh, ow)
			} else {
				c.backwardDense(g, xs, dxs, ws, dws, ih, iw, oh, ow)
			}
		}
	}
}
