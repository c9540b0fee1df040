package layers

import (
	"math"
	"slices"
	"testing"

	"gist/internal/tensor"
)

// ConvAlgo is an input to the analytical models and selects no code path:
// an operator marked AlgoIm2col computes, bit for bit, what the same
// operator marked AlgoDirect computes.

func TestIm2colMatchesDirectForward(t *testing.T) {
	for _, cc := range diffConvCases() {
		x := randTensor(1, cc.n, cc.inC, cc.h, cc.w)
		params := []*tensor.Tensor{randTensor(2, cc.outC, cc.inC, cc.kh, cc.kw), randTensor(3, cc.outC)}
		run := func(algo ConvAlgo) *tensor.Tensor {
			op := &Conv2D{OutC: cc.outC, KH: cc.kh, KW: cc.kw, Stride: cc.stride, Pad: cc.pad, Algo: algo}
			out, _ := runOpNoT(op, []*tensor.Tensor{x}, params)
			return out
		}
		if !bitsEqual(run(AlgoDirect), run(AlgoIm2col)) {
			t.Errorf("case %+v: Algo changed the forward output", cc)
		}
	}
}

func TestIm2colBackwardMatchesDirect(t *testing.T) {
	x := randTensor(21, 2, 3, 6, 6)
	w := randTensor(22, 4, 3, 3, 3)
	b := randTensor(23, 4)
	dy := randTensor(24, 2, 4, 6, 6)

	run := func(algo ConvAlgo) []*tensor.Tensor {
		op := NewConv2D(4, 3, 1, 1).SetAlgo(algo)
		dx := tensor.New(2, 3, 6, 6)
		dw := tensor.New(4, 3, 3, 3)
		db := tensor.New(4)
		op.Backward(&BwdCtx{
			In: []*tensor.Tensor{x}, Params: []*tensor.Tensor{w, b},
			DOut: dy, DIn: []*tensor.Tensor{dx},
			DParams: []*tensor.Tensor{dw, db}, Aux: map[string]any{},
		})
		return []*tensor.Tensor{dx, dw, db}
	}
	direct, marked := run(AlgoDirect), run(AlgoIm2col)
	for i, name := range []string{"dX", "dW", "dB"} {
		if !bitsEqual(direct[i], marked[i]) {
			t.Errorf("Algo changed %s", name)
		}
	}
}

func bitsEqual(a, b *tensor.Tensor) bool {
	return a.Shape.Equal(b.Shape) && slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

func TestConvWorkspaceBytes(t *testing.T) {
	in := tensor.Shape{8, 64, 28, 28}
	direct := NewConv2D(64, 3, 1, 1)
	if direct.WorkspaceBytes(in) != 0 {
		t.Error("direct conv needs no workspace")
	}
	gemm := NewConv2D(64, 3, 1, 1).SetAlgo(AlgoIm2col)
	// Column matrix: inC*k*k rows x oh*ow cols of FP32 for one image.
	want := int64(64*3*3) * int64(28*28) * 4
	if got := gemm.WorkspaceBytes(in); got != want {
		t.Errorf("im2col workspace = %d, want %d", got, want)
	}
	if gemm.WorkspaceBytes(tensor.Shape{1, 2}) != 0 {
		t.Error("bad shape should yield zero workspace")
	}
}

func TestConvAlgoStringAndPanic(t *testing.T) {
	if AlgoDirect.String() != "direct" || AlgoIm2col.String() != "im2col" {
		t.Error("names")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algo must panic")
		}
	}()
	NewConv2D(1, 1, 1, 0).SetAlgo(ConvAlgo(7))
}
