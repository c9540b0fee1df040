// Package layers implements every operator the paper's application suite
// needs — convolution, ReLU, max/average pooling, fully connected, batch
// normalization, local response normalization, dropout, concatenation,
// residual addition and softmax cross-entropy — with full forward AND
// backward passes on CPU tensors, plus the shape inference and FLOP counts
// the memory planner and GPU cost model consume.
//
// Each operator declares which stashed values its backward pass reads
// (Needs). That declaration is the ground truth Gist's Schedule Builder
// analyses: a feature map is "stashed" exactly when some backward pass needs
// it, and the Binarize/SSDC/DPR encodings are legal exactly where Needs says
// the dependence is weak enough.
package layers

import (
	"fmt"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

// Kind identifies an operator type, the unit of Gist's layer-specific
// pattern matching (ReLU→Pool, ReLU→Conv, ...).
type Kind int

// Operator kinds.
const (
	Input Kind = iota
	Conv
	ReLU
	MaxPool
	AvgPool
	FC
	BatchNorm
	LRN
	Dropout
	Concat
	Add
	SoftmaxXent
)

var kindNames = map[Kind]string{
	Input: "Input", Conv: "Conv", ReLU: "ReLU", MaxPool: "MaxPool",
	AvgPool: "AvgPool", FC: "FC", BatchNorm: "BatchNorm", LRN: "LRN",
	Dropout: "Dropout", Concat: "Concat", Add: "Add", SoftmaxXent: "SoftmaxXent",
}

// String returns the operator kind name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// BackwardNeeds declares which full-fidelity feature maps an operator's
// backward pass reads (Figure 4 of the paper). X is the operator's stashed
// input feature map; Y is its stashed output feature map.
type BackwardNeeds struct {
	X bool // backward reads the input feature map
	Y bool // backward reads the output feature map
}

// FwdCtx carries the tensors for one forward invocation of an operator.
type FwdCtx struct {
	In     []*tensor.Tensor
	Params []*tensor.Tensor
	Out    *tensor.Tensor
	// Aux receives small per-invocation side stashes (pool argmax map,
	// batch-norm statistics, dropout mask) that the matching BwdCtx replays.
	Aux map[string]any
	// RNG drives stochastic operators (dropout). Nil for deterministic ops.
	RNG *tensor.RNG
	// Train selects training behaviour (dropout active, BN batch stats).
	Train bool
}

// BwdCtx carries the tensors for one backward invocation. In and Out hold
// the stashed feature maps and are nil when the operator's Needs say they
// are not required — operators must not touch tensors they did not declare.
type BwdCtx struct {
	In     []*tensor.Tensor
	Params []*tensor.Tensor
	Out    *tensor.Tensor
	// OutMask, when non-nil, serves the declared Y in place of Out (then
	// nil): the Binarize container as stored, bit i set iff Y[i] > 0. Only
	// a ReLU, whose backward reads nothing of Y but its sign, is handed one.
	OutMask *bitpack.BitMask
	DOut    *tensor.Tensor
	DIn     []*tensor.Tensor // written (not accumulated) by the operator
	DParams []*tensor.Tensor // written (not accumulated) by the operator
	Aux     map[string]any
}

// Op is a single layer operator.
type Op interface {
	Kind() Kind
	// OutShape infers the output shape from input shapes.
	OutShape(in []tensor.Shape) (tensor.Shape, error)
	// ParamShapes returns the learnable parameter shapes for the given
	// input shapes (empty for parameterless operators).
	ParamShapes(in []tensor.Shape) []tensor.Shape
	// Needs reports which stashed feature maps Backward reads.
	Needs() BackwardNeeds
	Forward(ctx *FwdCtx)
	Backward(ctx *BwdCtx)
	// FLOPs estimates the forward-pass floating point operations; the
	// backward pass of compute-dominated layers is modeled as 2x forward
	// by the cost model.
	FLOPs(in []tensor.Shape) int64
}

// shape4 validates a 4-d NCHW input shape.
func shape4(s tensor.Shape) (n, c, h, w int, err error) {
	if len(s) != 4 {
		return 0, 0, 0, 0, fmt.Errorf("layers: want NCHW shape, got %v", s)
	}
	return s[0], s[1], s[2], s[3], nil
}

// convOut computes one spatial output extent.
func convOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
