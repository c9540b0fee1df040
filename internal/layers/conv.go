package layers

import (
	"fmt"

	"gist/internal/tensor"
)

// Conv2D is a 2-d convolution over NCHW input with learnable filter and
// bias. Its backward pass needs the stashed input feature map X to compute
// the weight gradient (Figure 4(d) of the paper) — which is why Binarize is
// illegal for ReLU→Conv and SSDC takes its place.
type Conv2D struct {
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	// Algo is the algorithm the analytical models (WorkspaceBytes,
	// costmodel, core/algoselect) price this convolution at; it selects no
	// code path. See ConvAlgo.
	Algo ConvAlgo
}

// NewConv2D returns a square-kernel convolution.
func NewConv2D(outC, k, stride, pad int) *Conv2D {
	return &Conv2D{OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}
}

// Kind returns Conv.
func (c *Conv2D) Kind() Kind { return Conv }

// Needs reports that convolution's backward reads X (for dW) but not Y.
func (c *Conv2D) Needs() BackwardNeeds { return BackwardNeeds{X: true} }

// OutShape infers [n, outC, oh, ow].
func (c *Conv2D) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("layers: Conv2D wants 1 input, got %d", len(in))
	}
	n, _, h, w, err := shape4(in[0])
	if err != nil {
		return nil, err
	}
	oh := convOut(h, c.KH, c.Stride, c.Pad)
	ow := convOut(w, c.KW, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: Conv2D output %dx%d not positive for input %v", oh, ow, in[0])
	}
	return tensor.Shape{n, c.OutC, oh, ow}, nil
}

// ParamShapes returns the filter [outC, inC, kh, kw] and bias [outC].
func (c *Conv2D) ParamShapes(in []tensor.Shape) []tensor.Shape {
	inC := in[0][1]
	return []tensor.Shape{{c.OutC, inC, c.KH, c.KW}, {c.OutC}}
}

// FLOPs counts 2 * output elements * filter taps.
func (c *Conv2D) FLOPs(in []tensor.Shape) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	taps := int64(in[0][1]) * int64(c.KH) * int64(c.KW)
	return 2 * int64(out.NumElements()) * taps
}

// Forward computes the convolution with the direct kernels.
func (c *Conv2D) Forward(ctx *FwdCtx) { c.forwardDirect(ctx) }

// Backward computes dX, dW and dB from the stashed X and incoming dY.
func (c *Conv2D) Backward(ctx *BwdCtx) { c.backwardDirect(ctx) }
