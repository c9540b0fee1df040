package layers

import (
	"fmt"

	"gist/internal/tensor"
)

// FCOp is a fully connected (affine) layer: y = x·Wᵀ + b. Any 4-d input is
// flattened to [n, features] internally. Like convolution, its backward
// pass reads the stashed input X to form the weight gradient.
type FCOp struct {
	Out int
}

// NewFC returns a fully connected layer with the given output width.
func NewFC(out int) *FCOp { return &FCOp{Out: out} }

// Kind returns FC.
func (f *FCOp) Kind() Kind { return FC }

// Needs reports the backward dependence on X (for dW).
func (f *FCOp) Needs() BackwardNeeds { return BackwardNeeds{X: true} }

// OutShape infers [n, out].
func (f *FCOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: FC wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) < 2 {
		return nil, fmt.Errorf("layers: FC wants rank >= 2 input, got %v", s)
	}
	return tensor.Shape{s[0], f.Out}, nil
}

// ParamShapes returns the weight [out, in] and bias [out].
func (f *FCOp) ParamShapes(in []tensor.Shape) []tensor.Shape {
	features := in[0].NumElements() / in[0][0]
	return []tensor.Shape{{f.Out, features}, {f.Out}}
}

// FLOPs counts the dense matmul.
func (f *FCOp) FLOPs(in []tensor.Shape) int64 {
	n := int64(in[0][0])
	features := int64(in[0].NumElements()) / n
	return 2 * n * features * int64(f.Out)
}

// Forward computes the affine map.
func (f *FCOp) Forward(ctx *FwdCtx) {
	x, w, b, y := ctx.In[0], ctx.Params[0], ctx.Params[1], ctx.Out
	n := x.Shape[0]
	features := x.NumElements() / n
	for ni := 0; ni < n; ni++ {
		xRow := x.Data[ni*features : (ni+1)*features]
		for o := 0; o < f.Out; o++ {
			sum := b.Data[o]
			wRow := w.Data[o*features : (o+1)*features]
			for i, xv := range xRow {
				sum += float32(xv * wRow[i])
			}
			y.Data[ni*f.Out+o] = sum
		}
	}
}

// Backward computes dX = dY·W, dW = dYᵀ·X, dB = Σ dY; dW and dB only
// when DIn[0] is nil.
func (f *FCOp) Backward(ctx *BwdCtx) {
	x, w, dy := ctx.In[0], ctx.Params[0], ctx.DOut
	dx, dw, db := ctx.DIn[0], ctx.DParams[0], ctx.DParams[1]
	n := x.Shape[0]
	features := x.NumElements() / n
	if dx != nil {
		dx.Zero()
	}
	dw.Zero()
	db.Zero()
	for ni := 0; ni < n; ni++ {
		xRow := x.Data[ni*features : (ni+1)*features]
		for o := 0; o < f.Out; o++ {
			g := dy.Data[ni*f.Out+o]
			if g == 0 {
				continue
			}
			db.Data[o] += g
			wRow := w.Data[o*features : (o+1)*features]
			dwRow := dw.Data[o*features : (o+1)*features]
			if dx == nil {
				for i := range xRow {
					dwRow[i] += float32(g * xRow[i])
				}
				continue
			}
			dxRow := dx.Data[ni*features : (ni+1)*features]
			for i := range xRow {
				dwRow[i] += float32(g * xRow[i])
				dxRow[i] += float32(g * wRow[i])
			}
		}
	}
}
