package layers

import (
	"fmt"
	"math"

	"gist/internal/tensor"
)

// Aux keys for batch-norm saved statistics.
const (
	auxKeyBNMean   = "bn.mean"
	auxKeyBNInvStd = "bn.invstd"
	auxKeyBNSums   = "bn.sums"
)

// BatchNormOp is per-channel batch normalization over NCHW input with
// learnable scale (gamma) and shift (beta). Its backward pass reads the
// stashed input X plus the small saved per-channel statistics; the output
// feature map is not needed. In the paper's taxonomy its stashed input
// falls under "Others" (a DPR target) unless a preceding ReLU/Pool makes a
// sparse encoding applicable.
type BatchNormOp struct {
	Eps float64
	// Momentum for the running statistics used at inference time.
	Momentum float64
	// Running statistics, updated during training forward passes.
	RunningMean, RunningVar []float32
}

// NewBatchNorm returns a batch normalization operator with standard
// epsilon and momentum.
func NewBatchNorm() *BatchNormOp {
	return &BatchNormOp{Eps: 1e-5, Momentum: 0.9}
}

// Kind returns BatchNorm.
func (b *BatchNormOp) Kind() Kind { return BatchNorm }

// Needs reports the backward dependence on X.
func (b *BatchNormOp) Needs() BackwardNeeds { return BackwardNeeds{X: true} }

// OutShape is the identity.
func (b *BatchNormOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: BatchNorm wants 1 input, got %d", len(in))
	}
	if _, _, _, _, err := shape4(in[0]); err != nil {
		return nil, err
	}
	return in[0].Clone(), nil
}

// ParamShapes returns gamma [C] and beta [C].
func (b *BatchNormOp) ParamShapes(in []tensor.Shape) []tensor.Shape {
	c := in[0][1]
	return []tensor.Shape{{c}, {c}}
}

// FLOPs counts ~8 ops per element (normalize + scale/shift + stats).
func (b *BatchNormOp) FLOPs(in []tensor.Shape) int64 {
	return 8 * int64(in[0].NumElements())
}

// Forward normalizes each channel with batch statistics (training) or
// running statistics (inference) and applies gamma/beta.
func (b *BatchNormOp) Forward(ctx *FwdCtx) {
	x, gamma, beta, y := ctx.In[0], ctx.Params[0], ctx.Params[1], ctx.Out
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	per := n * h * w
	// Reuse the previous step's saved-statistics slices when the executor
	// keeps aux maps alive across steps; every entry is assigned below.
	mean, _ := ctx.Aux[auxKeyBNMean].([]float32)
	invStd, _ := ctx.Aux[auxKeyBNInvStd].([]float32)
	if len(mean) != c {
		mean = make([]float32, c)
	}
	if len(invStd) != c {
		invStd = make([]float32, c)
	}
	if b.RunningMean == nil {
		b.RunningMean = make([]float32, c)
		b.RunningVar = make([]float32, c)
		for i := range b.RunningVar {
			b.RunningVar[i] = 1
		}
	}
	hw := h * w
	for ci := 0; ci < c; ci++ {
		var m, v float64
		if ctx.Train {
			for ni := 0; ni < n; ni++ {
				row := x.Data[(ni*c+ci)*hw : (ni*c+ci+1)*hw]
				for _, xv := range row {
					m += float64(xv)
				}
			}
			m /= float64(per)
			for ni := 0; ni < n; ni++ {
				row := x.Data[(ni*c+ci)*hw : (ni*c+ci+1)*hw]
				for _, xv := range row {
					d := float64(xv) - m
					v += float64(d * d)
				}
			}
			v /= float64(per)
			b.RunningMean[ci] = float32(float64(b.Momentum*float64(b.RunningMean[ci])) + float64((1-b.Momentum)*m))
			b.RunningVar[ci] = float32(float64(b.Momentum*float64(b.RunningVar[ci])) + float64((1-b.Momentum)*v))
		} else {
			m = float64(b.RunningMean[ci])
			v = float64(b.RunningVar[ci])
		}
		mean[ci] = float32(m)
		invStd[ci] = float32(1 / math.Sqrt(v+b.Eps))
		g, bt := gamma.Data[ci], beta.Data[ci]
		mc, is := mean[ci], invStd[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * hw
			row := x.Data[base : base+hw]
			out := y.Data[base : base+hw]
			for k, xv := range row {
				out[k] = float32(g*((xv-mc)*is)) + bt
			}
		}
	}
	ctx.Aux[auxKeyBNMean] = mean
	ctx.Aux[auxKeyBNInvStd] = invStd
}

// Backward computes the standard batch-norm gradients from the stashed X
// and the saved statistics. It reads X an image at a time (imagesOf), in two
// passes: the first sums dY and dY·x̂ per channel, the second writes dX from
// those sums. Each channel sums in (image, position) order, so X read from
// a stash as stored gives the bits X as a tensor gives.
func (b *BatchNormOp) Backward(ctx *BwdCtx) {
	gamma, dy := ctx.Params[0], ctx.DOut
	dx, dGamma, dBeta := ctx.DIn[0], ctx.DParams[0], ctx.DParams[1]
	mean := ctx.Aux[auxKeyBNMean].([]float32)
	invStd := ctx.Aux[auxKeyBNInvStd].([]float32)
	xs, shape := imagesOf(ctx)
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	per := float64(n * h * w)
	hw := h * w
	// Per-channel sums, kept in aux across steps (storing a slice allocates).
	sums, _ := ctx.Aux[auxKeyBNSums].([]float64)
	if len(sums) != 2*c {
		sums = make([]float64, 2*c)
		ctx.Aux[auxKeyBNSums] = sums
	}
	clear(sums)
	sumDy, sumDyXh := sums[:c], sums[c:]
	for ni := 0; ni < n; ni++ {
		x := xs.image(ni)
		for ci := 0; ci < c; ci++ {
			mc, is := mean[ci], invStd[ci]
			xr := x[ci*hw : (ci+1)*hw]
			base := (ni*c + ci) * hw
			dyr := dy.Data[base : base+hw]
			s, sx := sumDy[ci], sumDyXh[ci]
			for k, g := range dyr {
				s += float64(g)
				sx += float64(float64(g) * float64((xr[k]-mc)*is))
			}
			sumDy[ci], sumDyXh[ci] = s, sx
		}
	}
	for ci := 0; ci < c; ci++ {
		dGamma.Data[ci] = float32(sumDyXh[ci])
		dBeta.Data[ci] = float32(sumDy[ci])
	}
	if ctx.InStash != nil {
		ctx.InStash.Rewind()
	}
	for ni := 0; ni < n; ni++ {
		x := xs.image(ni)
		for ci := 0; ci < c; ci++ {
			mc, is := mean[ci], invStd[ci]
			ga, sDy, sDyXh := float64(gamma.Data[ci]), sumDy[ci], sumDyXh[ci]
			xr := x[ci*hw : (ci+1)*hw]
			base := (ni*c + ci) * hw
			dyr := dy.Data[base : base+hw]
			dxr := dx.Data[base : base+hw]
			for k, g := range dyr {
				xh := float64((xr[k] - mc) * is)
				dxr[k] = float32(ga * float64(is) * (float64(g) - sDy/per - xh*sDyXh/per))
			}
		}
	}
}

// LRNOp is AlexNet-style local response normalization across channels:
// y = x / (k + (alpha/n)·Σ x²)^beta over a window of n adjacent channels.
// Its backward pass reads both stashed X and Y, so its stashes fall in the
// paper's "Others" category (DPR-eligible only).
type LRNOp struct {
	N     int // window size (channels)
	K     float64
	Alpha float64
	Beta  float64
}

// NewLRN returns an LRN operator with AlexNet's constants.
func NewLRN(n int) *LRNOp {
	return &LRNOp{N: n, K: 2, Alpha: 1e-4, Beta: 0.75}
}

// Kind returns LRN.
func (l *LRNOp) Kind() Kind { return LRN }

// Needs reports the backward dependence on X and Y.
func (l *LRNOp) Needs() BackwardNeeds { return BackwardNeeds{X: true, Y: true} }

// OutShape is the identity.
func (l *LRNOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: LRN wants 1 input, got %d", len(in))
	}
	if _, _, _, _, err := shape4(in[0]); err != nil {
		return nil, err
	}
	return in[0].Clone(), nil
}

// ParamShapes returns no parameters.
func (l *LRNOp) ParamShapes([]tensor.Shape) []tensor.Shape { return nil }

// FLOPs counts the window accumulation per element.
func (l *LRNOp) FLOPs(in []tensor.Shape) int64 {
	return int64(in[0].NumElements()) * int64(l.N+4)
}

// scale computes k + (alpha/n)·Σ x² over the channel window at (ni,ci,hi,wi).
func (l *LRNOp) scale(x *tensor.Tensor, ni, ci, hi, wi int) float64 {
	c := x.Shape[1]
	lo := max(0, ci-l.N/2)
	hi2 := min(c-1, ci+l.N/2)
	var sum float64
	for cj := lo; cj <= hi2; cj++ {
		v := float64(x.At(ni, cj, hi, wi))
		sum += float64(v * v)
	}
	return l.K + float64(l.Alpha/float64(l.N)*sum)
}

// Forward computes the cross-channel normalization.
func (l *LRNOp) Forward(ctx *FwdCtx) {
	x, y := ctx.In[0], ctx.Out
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					s := l.scale(x, ni, ci, hi, wi)
					y.Set(ni, ci, hi, wi, float32(float64(x.At(ni, ci, hi, wi))*math.Pow(s, -l.Beta)))
				}
			}
		}
	}
}

// Backward computes the LRN gradient from stashed X and Y:
// dX[i] = dY[i]·s_i^-β − (2αβ/n)·x[i]·Σ_j (dY[j]·y[j]/s_j) over windows j
// containing channel i.
func (l *LRNOp) Backward(ctx *BwdCtx) {
	x, y, dy, dx := ctx.In[0], ctx.Out, ctx.DOut, ctx.DIn[0]
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	for ni := 0; ni < n; ni++ {
		for hi := 0; hi < h; hi++ {
			for wi := 0; wi < w; wi++ {
				// Precompute dY[j]·y[j]/s_j per channel at this position.
				ratio := make([]float64, c)
				for cj := 0; cj < c; cj++ {
					s := l.scale(x, ni, cj, hi, wi)
					ratio[cj] = float64(dy.At(ni, cj, hi, wi)) * float64(y.At(ni, cj, hi, wi)) / s
				}
				for ci := 0; ci < c; ci++ {
					s := l.scale(x, ni, ci, hi, wi)
					d := float64(float64(dy.At(ni, ci, hi, wi)) * math.Pow(s, -l.Beta))
					lo := max(0, ci-l.N/2)
					hi2 := min(c-1, ci+l.N/2)
					var cross float64
					for cj := lo; cj <= hi2; cj++ {
						cross += ratio[cj]
					}
					d -= float64(2 * l.Alpha * l.Beta / float64(l.N) * float64(x.At(ni, ci, hi, wi)) * cross)
					dx.Set(ni, ci, hi, wi, float32(d))
				}
			}
		}
	}
}
