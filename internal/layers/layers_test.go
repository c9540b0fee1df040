package layers

import (
	"math"
	"testing"

	"gist/internal/bitpack"
	"gist/internal/tensor"
)

func TestKindString(t *testing.T) {
	if Conv.String() != "Conv" || ReLU.String() != "ReLU" || MaxPool.String() != "MaxPool" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestBackwardNeedsDeclarations(t *testing.T) {
	// These declarations are the basis of the Gist pattern analysis
	// (Figure 4): ReLU needs only Y, Conv/FC need only X, MaxPool in the
	// baseline needs both, AvgPool/Add/Concat/Dropout need neither.
	cases := []struct {
		op   Op
		want BackwardNeeds
	}{
		{NewConv2D(1, 3, 1, 1), BackwardNeeds{X: true}},
		{NewFC(10), BackwardNeeds{X: true}},
		{NewReLU(), BackwardNeeds{Y: true}},
		{NewMaxPool(2, 2, 0), BackwardNeeds{X: true, Y: true}},
		{NewAvgPool(2, 2, 0), BackwardNeeds{}},
		{NewBatchNorm(), BackwardNeeds{X: true}},
		{NewLRN(5), BackwardNeeds{X: true, Y: true}},
		{NewDropout(0.5), BackwardNeeds{}},
		{NewConcat(), BackwardNeeds{}},
		{NewAdd(), BackwardNeeds{}},
		{NewSoftmaxXent(), BackwardNeeds{Y: true}},
	}
	for _, c := range cases {
		if c.op.Needs() != c.want {
			t.Errorf("%v Needs = %+v, want %+v", c.op.Kind(), c.op.Needs(), c.want)
		}
	}
}

func TestConvShapes(t *testing.T) {
	op := NewConv2D(64, 3, 1, 1)
	out, err := op.OutShape([]tensor.Shape{{8, 3, 224, 224}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{8, 64, 224, 224}) {
		t.Fatalf("out = %v", out)
	}
	ps := op.ParamShapes([]tensor.Shape{{8, 3, 224, 224}})
	if !ps[0].Equal(tensor.Shape{64, 3, 3, 3}) || !ps[1].Equal(tensor.Shape{64}) {
		t.Fatalf("params = %v", ps)
	}
	// AlexNet conv1: 11x11 stride 4 on 227 -> 55.
	op2 := NewConv2D(96, 11, 4, 0)
	out2, _ := op2.OutShape([]tensor.Shape{{1, 3, 227, 227}})
	if out2[2] != 55 || out2[3] != 55 {
		t.Fatalf("AlexNet conv1 spatial = %dx%d, want 55x55", out2[2], out2[3])
	}
}

func TestConvShapeErrors(t *testing.T) {
	op := NewConv2D(4, 3, 1, 0)
	if _, err := op.OutShape([]tensor.Shape{{1, 2}}); err == nil {
		t.Error("non-4d input should error")
	}
	if _, err := op.OutShape([]tensor.Shape{{1, 2, 2, 2}}); err == nil {
		t.Error("too-small input should error")
	}
	if _, err := op.OutShape(nil); err == nil {
		t.Error("no inputs should error")
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1x1 input channel, 2x2 input, 2x2 kernel, no pad: single dot product.
	op := NewConv2D(1, 2, 1, 0)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	w := tensor.FromSlice([]float32{10, 20, 30, 40}, 1, 1, 2, 2)
	b := tensor.FromSlice([]float32{5}, 1)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, []*tensor.Tensor{w, b})
	want := float32(1*10+2*20+3*30+4*40) + 5
	if out.Data[0] != want {
		t.Fatalf("conv = %v, want %v", out.Data[0], want)
	}
}

// runOpNoT is runOp without the testing.T plumb, for value tests.
func runOpNoT(op Op, ins []*tensor.Tensor, params []*tensor.Tensor) (*tensor.Tensor, map[string]any) {
	shapes := make([]tensor.Shape, len(ins))
	for i, x := range ins {
		shapes[i] = x.Shape
	}
	outShape, err := op.OutShape(shapes)
	if err != nil {
		panic(err)
	}
	out := tensor.New(outShape...)
	aux := map[string]any{}
	op.Forward(&FwdCtx{In: ins, Params: params, Out: out, Aux: aux, RNG: tensor.NewRNG(5), Train: true})
	return out, aux
}

func TestReLUForward(t *testing.T) {
	op := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2, -0.5}, 1, 4)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, nil)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu[%d] = %v", i, out.Data[i])
		}
	}
}

func TestReLUOutputSparsity(t *testing.T) {
	// Symmetric input: ~50% of ReLU outputs should be zero — the property
	// SSDC exploits.
	op := NewReLU()
	x := randTensor(50, 1, 8, 32, 32)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, nil)
	s := out.Sparsity()
	if s < 0.4 || s > 0.6 {
		t.Errorf("ReLU sparsity on symmetric input = %v, want ~0.5", s)
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	op := NewMaxPool(2, 2, 0)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 3,
		4, 0, 1, 2,
		9, 1, 0, 0,
		1, 1, 0, 7,
	}, 1, 1, 4, 4)
	out, aux := runOpNoT(op, []*tensor.Tensor{x}, nil)
	want := []float32{4, 5, 9, 7}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
	// Argmax map: within-window row-major indices of 4, 5, 9, 7.
	am := aux[auxKeyArgmax].(*bitpack.NibbleArray)
	wantIdx := []uint8{2, 0, 0, 3}
	for i := range wantIdx {
		if am.Get(i) != wantIdx[i] {
			t.Fatalf("argmax[%d] = %d, want %d", i, am.Get(i), wantIdx[i])
		}
	}
}

func TestMaxPoolBackwardUsesOnlyArgmax(t *testing.T) {
	// The backward context carries no In/Out: routing must come entirely
	// from the argmax map (the property Binarize relies on).
	op := NewMaxPool(2, 2, 0)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 3,
		4, 0, 1, 2,
		9, 1, 0, 0,
		1, 1, 0, 7,
	}, 1, 1, 4, 4)
	_, aux := runOpNoT(op, []*tensor.Tensor{x}, nil)
	dy := tensor.FromSlice([]float32{10, 20, 30, 40}, 1, 1, 2, 2)
	dx := tensor.New(1, 1, 4, 4)
	op.Backward(&BwdCtx{DOut: dy, DIn: []*tensor.Tensor{dx}, Aux: aux})
	want := []float32{
		0, 0, 20, 0,
		10, 0, 0, 0,
		30, 0, 0, 0,
		0, 0, 0, 40,
	}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], want[i])
		}
	}
}

func TestMaxPoolWindowLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window > 4 must panic (argmax map is 4 bits)")
		}
	}()
	NewMaxPool(5, 5, 0)
}

func TestAvgPoolForward(t *testing.T) {
	op := NewAvgPool(2, 2, 0)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, nil)
	if out.Data[0] != 2.5 {
		t.Fatalf("avg = %v", out.Data[0])
	}
}

func TestGlobalAvgPool(t *testing.T) {
	// ResNet-style global average pooling: window = full spatial extent.
	op := NewAvgPool(4, 4, 0)
	x := tensor.New(2, 3, 4, 4)
	x.Fill(3)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, nil)
	if !out.Shape.Equal(tensor.Shape{2, 3, 1, 1}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for _, v := range out.Data {
		if v != 3 {
			t.Fatalf("global avg = %v", v)
		}
	}
}

func TestFCForwardKnown(t *testing.T) {
	op := NewFC(2)
	x := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	w := tensor.FromSlice([]float32{1, 0, 0, 0, 1, 1}, 2, 3)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, []*tensor.Tensor{w, b})
	if out.Data[0] != 11 || out.Data[1] != 25 {
		t.Fatalf("fc = %v", out.Data)
	}
}

// TestFCNilInputGradient: a nil DIn[0] leaves dW and dB bit for bit what
// the full backward computes, zero gradients included.
func TestFCNilInputGradient(t *testing.T) {
	op := NewFC(5)
	x := randTensor(1, 3, 2, 2, 3)
	params := []*tensor.Tensor{randTensor(2, 5, 12), randTensor(3, 5)}
	dy := randTensor(4, 3, 5)
	for i := range dy.Data {
		if i%3 == 0 {
			dy.Data[i] = 0
		}
	}
	run := func(dx *tensor.Tensor) []*tensor.Tensor {
		dParams := []*tensor.Tensor{tensor.New(5, 12), tensor.New(5)}
		op.Backward(&BwdCtx{In: []*tensor.Tensor{x}, Params: params, DOut: dy,
			DIn: []*tensor.Tensor{dx}, DParams: dParams})
		return dParams
	}
	full, noDX := run(tensor.New(x.Shape...)), run(nil)
	for i := range full {
		for j, v := range full[i].Data {
			if math.Float32bits(noDX[i].Data[j]) != math.Float32bits(v) {
				t.Fatalf("param grad %d[%d] = %v with nil dX, %v with dX", i, j, noDX[i].Data[j], v)
			}
		}
	}
}

func TestBatchNormForwardStatistics(t *testing.T) {
	op := NewBatchNorm()
	x := randTensor(60, 8, 2, 4, 4)
	gamma := tensor.New(2)
	gamma.Fill(1)
	beta := tensor.New(2)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, []*tensor.Tensor{gamma, beta})
	// Each channel of the output must have ~zero mean and ~unit variance.
	n, c, h, w := 8, 2, 4, 4
	for ci := 0; ci < c; ci++ {
		var sum, sumSq float64
		for ni := 0; ni < n; ni++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					v := float64(out.At(ni, ci, hi, wi))
					sum += v
					sumSq += v * v
				}
			}
		}
		cnt := float64(n * h * w)
		mean := sum / cnt
		variance := sumSq/cnt - mean*mean
		if math.Abs(mean) > 1e-5 {
			t.Errorf("channel %d mean = %v", ci, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Errorf("channel %d variance = %v", ci, variance)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	op := NewBatchNorm()
	x := randTensor(61, 4, 2, 3, 3)
	gamma := tensor.New(2)
	gamma.Fill(1)
	beta := tensor.New(2)
	// Train once to populate running stats.
	runOpNoT(op, []*tensor.Tensor{x}, []*tensor.Tensor{gamma, beta})
	// Inference pass: output must differ from the training-normalized one
	// because running stats started from (0, 1) and only moved 10%.
	outShape, _ := op.OutShape([]tensor.Shape{x.Shape})
	out := tensor.New(outShape...)
	op.Forward(&FwdCtx{In: []*tensor.Tensor{x}, Params: []*tensor.Tensor{gamma, beta}, Out: out, Aux: map[string]any{}, Train: false})
	if out.Data[0] == 0 {
		t.Skip("degenerate input")
	}
	// Just assert the pass ran and produced finite values.
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("inference produced non-finite value")
		}
	}
}

func TestDropoutTrainAndEval(t *testing.T) {
	op := NewDropout(0.5)
	x := tensor.New(1, 10000)
	x.Fill(1)
	out, aux := runOpNoT(op, []*tensor.Tensor{x}, nil)
	kept := 0
	for _, v := range out.Data {
		if v != 0 {
			if v != 2 { // inverted dropout scale 1/(1-0.5)
				t.Fatalf("kept value = %v, want 2", v)
			}
			kept++
		}
	}
	frac := float64(kept) / float64(len(out.Data))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("keep fraction = %v, want ~0.5", frac)
	}
	// Backward replays the same mask.
	dy := tensor.New(1, 10000)
	dy.Fill(1)
	dx := tensor.New(1, 10000)
	op.Backward(&BwdCtx{DOut: dy, DIn: []*tensor.Tensor{dx}, Aux: aux})
	for i := range out.Data {
		if (out.Data[i] != 0) != (dx.Data[i] != 0) {
			t.Fatal("backward mask must match forward mask")
		}
	}
	// Eval mode: identity.
	outShape, _ := op.OutShape([]tensor.Shape{x.Shape})
	evalOut := tensor.New(outShape...)
	op.Forward(&FwdCtx{In: []*tensor.Tensor{x}, Out: evalOut, Aux: map[string]any{}, Train: false})
	for _, v := range evalOut.Data {
		if v != 1 {
			t.Fatal("eval mode must be identity")
		}
	}
}

func TestDropoutRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1 must panic")
		}
	}()
	NewDropout(1)
}

func TestConcatForwardLayout(t *testing.T) {
	op := NewConcat()
	a := tensor.New(1, 1, 2, 2)
	a.Fill(1)
	b := tensor.New(1, 2, 2, 2)
	b.Fill(2)
	out, _ := runOpNoT(op, []*tensor.Tensor{a, b}, nil)
	if !out.Shape.Equal(tensor.Shape{1, 3, 2, 2}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for i := 0; i < 4; i++ {
		if out.Data[i] != 1 {
			t.Fatalf("channel 0 should be 1s")
		}
	}
	for i := 4; i < 12; i++ {
		if out.Data[i] != 2 {
			t.Fatalf("channels 1-2 should be 2s")
		}
	}
}

func TestConcatShapeMismatchErrors(t *testing.T) {
	op := NewConcat()
	_, err := op.OutShape([]tensor.Shape{{1, 1, 2, 2}, {1, 1, 3, 3}})
	if err == nil {
		t.Fatal("spatial mismatch should error")
	}
	_, err = op.OutShape([]tensor.Shape{{1, 1, 2, 2}})
	if err == nil {
		t.Fatal("single input should error")
	}
}

func TestAddForward(t *testing.T) {
	op := NewAdd()
	a := tensor.FromSlice([]float32{1, 2}, 1, 2, 1, 1)
	b := tensor.FromSlice([]float32{10, 20}, 1, 2, 1, 1)
	out, _ := runOpNoT(op, []*tensor.Tensor{a, b}, nil)
	if out.Data[0] != 11 || out.Data[1] != 22 {
		t.Fatalf("add = %v", out.Data)
	}
	if _, err := op.OutShape([]tensor.Shape{{1, 2, 1, 1}, {1, 3, 1, 1}}); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestSoftmaxXentForwardAndLoss(t *testing.T) {
	op := NewSoftmaxXent()
	x := tensor.FromSlice([]float32{1, 1, 1, 0, 0, 10}, 2, 3)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, nil)
	// Row 0: uniform; row 1: concentrated on class 2.
	for c := 0; c < 3; c++ {
		if math.Abs(float64(out.Data[c])-1.0/3) > 1e-6 {
			t.Fatalf("row0[%d] = %v", c, out.Data[c])
		}
	}
	if out.Data[5] < 0.99 {
		t.Fatalf("row1[2] = %v, want ~1", out.Data[5])
	}
	loss, errs := op.Loss(out, []int{0, 2})
	if errs != 0 {
		// Row 0 is an exact tie; argmax picks class 0 which matches.
		t.Fatalf("errors = %d", errs)
	}
	wantLoss := (math.Log(3) + -math.Log(float64(out.Data[5]))) / 2
	if math.Abs(loss-wantLoss) > 1e-6 {
		t.Fatalf("loss = %v, want %v", loss, wantLoss)
	}
}

func TestSoftmaxXentBackward(t *testing.T) {
	op := NewSoftmaxXent()
	x := tensor.FromSlice([]float32{2, 1, 0, 1}, 2, 2)
	out, aux := runOpNoT(op, []*tensor.Tensor{x}, nil)
	aux[AuxKeyLabels] = []int{0, 1}
	dx := tensor.New(2, 2)
	op.Backward(&BwdCtx{Out: out, DIn: []*tensor.Tensor{dx}, Aux: aux})
	// dX = (p - onehot)/N; gradient rows must each sum to 0.
	if math.Abs(float64(dx.Data[0]+dx.Data[1])) > 1e-6 {
		t.Errorf("row 0 grad sum = %v", dx.Data[0]+dx.Data[1])
	}
	if dx.Data[0] >= 0 {
		t.Error("true-class gradient must be negative")
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	op := NewSoftmaxXent()
	x := tensor.FromSlice([]float32{1000, 999, 998}, 1, 3)
	out, _ := runOpNoT(op, []*tensor.Tensor{x}, nil)
	var sum float64
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed")
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestInputOp(t *testing.T) {
	op := NewInput(4, 3, 32, 32)
	out, err := op.OutShape(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{4, 3, 32, 32}) {
		t.Fatalf("shape = %v", out)
	}
	if _, err := op.OutShape([]tensor.Shape{{1}}); err == nil {
		t.Fatal("input with inputs should error")
	}
	if op.FLOPs(nil) != 0 {
		t.Fatal("input has no FLOPs")
	}
}

func TestFLOPCounts(t *testing.T) {
	// VGG16 conv3-64 on 224x224, batch 1: 2*64*224*224*3*3*3 ≈ 173 MFLOPs.
	op := NewConv2D(64, 3, 1, 1)
	got := op.FLOPs([]tensor.Shape{{1, 3, 224, 224}})
	want := int64(2) * 64 * 224 * 224 * 3 * 3 * 3
	if got != want {
		t.Fatalf("conv FLOPs = %d, want %d", got, want)
	}
	fc := NewFC(4096)
	gotFC := fc.FLOPs([]tensor.Shape{{1, 25088}})
	if gotFC != 2*25088*4096 {
		t.Fatalf("fc FLOPs = %d", gotFC)
	}
}
