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
	// InStash, when non-nil, serves the declared X in place of In[0] (then
	// nil): the stashed input as stored, decoded an image at a time. Only a
	// Conv2D or FCOp, which read X one image (one row) after another, is
	// handed one.
	InStash StashReader
	// Scratch, when it holds one image of X, is where a Conv2D or FCOp
	// reading InStash decodes each image (else it allocates one).
	Scratch []float32
	DOut    *tensor.Tensor
	// DIn is written (not accumulated) by the operator. Conv2D and FCOp
	// accept a nil entry, for an input whose gradient nothing reads, and
	// then compute their parameter gradients only.
	DIn     []*tensor.Tensor
	DParams []*tensor.Tensor // written (not accumulated) by the operator
	Aux     map[string]any
}

// StashReader serves a stashed feature map as stored, with no FP32 copy of
// it, decoded a run of elements at a time through one cursor.
type StashReader interface {
	// Shape is the map's shape.
	Shape() tensor.Shape
	// Rewind moves the cursor back to position 0.
	Rewind()
	// DecodeNext writes the len(dst) elements from the cursor on, as a
	// decode of the stash gives them, into dst and moves the cursor past
	// them.
	DecodeNext(dst []float32)
}

// xImages hands a backward kernel X one image (one row of features) at a
// time: views of In[0], or InStash's images decoded one after another into
// the same buffer. Either way the kernel sees the values a decode of the
// whole map gives, so its output bits do not depend on the way.
type xImages struct {
	x     []float32 // In[0]'s data, or the one-image buffer
	stash StashReader
	size  int // elements per image
}

// imagesOf returns ctx's X as xImages, and X's shape.
func imagesOf(ctx *BwdCtx) (xImages, tensor.Shape) {
	if r := ctx.InStash; r != nil {
		shape := r.Shape()
		size := shape.NumElements() / shape[0]
		buf := ctx.Scratch
		if len(buf) < size {
			buf = make([]float32, size)
		}
		r.Rewind()
		return xImages{x: buf[:size], stash: r, size: size}, shape
	}
	x := ctx.In[0]
	return xImages{x: x.Data, size: x.NumElements() / x.Shape[0]}, x.Shape
}

// image returns image ni. Read from a stash, images come in ascending ni,
// each once, and one is valid until the next is asked for.
func (s *xImages) image(ni int) []float32 {
	if s.stash != nil {
		s.stash.DecodeNext(s.x)
		return s.x
	}
	return s.x[ni*s.size:][:s.size]
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
