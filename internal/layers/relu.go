package layers

import (
	"fmt"
	"math"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// ReLUOp is the rectified linear activation. Its backward pass reads only
// the stashed output Y — and only Y's sign (Figure 4(b)): dX[i] = dY[i] when
// Y[i] > 0 and 0 otherwise. That one-bit dependence is the basis of the
// Binarize encoding. ReLU also has the read-once/write-once property that
// makes it eligible for inplace computation.
type ReLUOp struct{}

// NewReLU returns a ReLU operator.
func NewReLU() *ReLUOp { return &ReLUOp{} }

// Kind returns ReLU.
func (r *ReLUOp) Kind() Kind { return ReLU }

// Needs reports the backward dependence on Y only.
func (r *ReLUOp) Needs() BackwardNeeds { return BackwardNeeds{Y: true} }

// OutShape is the identity.
func (r *ReLUOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: ReLU wants 1 input, got %d", len(in))
	}
	return in[0].Clone(), nil
}

// ParamShapes returns no parameters.
func (r *ReLUOp) ParamShapes([]tensor.Shape) []tensor.Shape { return nil }

// FLOPs counts one op per element.
func (r *ReLUOp) FLOPs(in []tensor.Shape) int64 {
	return int64(in[0].NumElements())
}

// Forward computes y = max(x, 0) without a branch on the data: each bit
// pattern is ANDed with its own bitpack.PositiveMask, so a positive x
// passes bit for bit and ±0, negatives and NaN become +0 — what the
// `x > 0 ? x : 0` loop in relu_diff_test.go gives.
func (r *ReLUOp) Forward(ctx *FwdCtx) {
	x := ctx.In[0].Data
	y := ctx.Out.Data[:len(x)]
	for i, v := range x {
		b := math.Float32bits(v)
		y[i] = math.Float32frombits(b & bitpack.PositiveMask(b))
	}
}

// Backward gates dY by the sign of the stashed Y: dY's bit pattern ANDed
// with PositiveMask of Y's, the same predicate Binarize stores, so NaN
// payloads and signed zeros of dY pass unchanged where Y > 0. Handed Y as
// that mask (OutMask), it gates word-parallel through ApplyGate, bit for bit
// the same result with no FP32 Y at all.
func (r *ReLUOp) Backward(ctx *BwdCtx) {
	dy := ctx.DOut.Data
	dx := ctx.DIn[0].Data[:len(dy)]
	if ctx.OutMask != nil {
		ctx.OutMask.ApplyGate(dx, dy)
		return
	}
	y := ctx.Out.Data[:len(dy)]
	for i, g := range dy {
		dx[i] = math.Float32frombits(math.Float32bits(g) & bitpack.PositiveMask(math.Float32bits(y[i])))
	}
}
