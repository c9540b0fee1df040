package layers

import (
	"fmt"

	"gist/internal/tensor"
)

// ConvAlgo models cuDNN's choice between memory-optimal and
// performance-optimal convolution algorithms that the paper discusses in
// Section II: the workspace a convolution needs is a function of the
// algorithm, and the paper's baseline deliberately picks the memory-optimal
// one.
//
// It is an input to the analytical models only — WorkspaceBytes, costmodel,
// core/algoselect, liveness and the workspace experiment — and selects no
// code path: Forward and Backward always run the workspace-free direct
// kernels of conv_direct.go, which on a CPU are also the faster ones
// (EXPERIMENTS.md, PR 20).
type ConvAlgo int

const (
	// AlgoDirect is the memory-optimal direct convolution: no workspace.
	AlgoDirect ConvAlgo = iota
	// AlgoIm2col is the lowering to a GEMM: it would materialize the column
	// matrix of each image as workspace (inC*kh*kw x oh*ow FP32 values) and
	// run as a dense matrix multiply — the form GPU libraries execute
	// fastest, which is what the cost model prices.
	AlgoIm2col
)

// String names the algorithm as reports print it.
func (a ConvAlgo) String() string {
	if a == AlgoIm2col {
		return "im2col"
	}
	return "direct"
}

// WorkspaceBytes returns the scratch memory one invocation of the
// convolution is modelled to need under its configured algorithm, for the
// given input shape: zero for direct, one image's column matrix for im2col.
func (c *Conv2D) WorkspaceBytes(in tensor.Shape) int64 {
	if c.Algo != AlgoIm2col {
		return 0
	}
	if c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0 {
		// A 1x1 stride-1 convolution is already a GEMM over the input
		// matrix: no column expansion is materialized.
		return 0
	}
	_, inC, h, w, err := shape4(in)
	if err != nil {
		return 0
	}
	oh := convOut(h, c.KH, c.Stride, c.Pad)
	ow := convOut(w, c.KW, c.Stride, c.Pad)
	return int64(inC*c.KH*c.KW) * int64(oh*ow) * 4
}

// SetAlgo sets the modelled convolution algorithm and returns the operator
// for chaining in network builders.
func (c *Conv2D) SetAlgo(a ConvAlgo) *Conv2D {
	if a != AlgoDirect && a != AlgoIm2col {
		panic(fmt.Sprintf("layers: unknown conv algorithm %d", int(a)))
	}
	c.Algo = a
	return c
}
