package train

import (
	"math"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/networks"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// smallNet builds a minimal conv net that trains in well under a second.
func smallNet(mb int) *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(mb, 2, 8, 8))
	c1 := g.MustAdd("conv1", layers.NewConv2D(4, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r1)
	fc := g.MustAdd("fc", layers.NewFC(4), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return g
}

func TestTrainingReducesLoss(t *testing.T) {
	g := smallNet(8)
	e := NewExecutor(g, Options{Seed: 1})
	d := NewDataset(4, 2, 8, 0.3, 2)
	recs := Run(e, d, RunConfig{Minibatch: 8, Steps: 120, LR: 0.05, ProbeEvery: 20})
	first, last := recs[0], recs[len(recs)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("loss did not fall: %v -> %v", first.Loss, last.Loss)
	}
	if last.AccuracyLoss > 0.25 {
		t.Fatalf("final accuracy loss %v, want < 0.25", last.AccuracyLoss)
	}
	if Diverged(recs, 4) {
		t.Fatal("baseline run must not be flagged as diverged")
	}
}

func TestDPRMatchesFP32Closely(t *testing.T) {
	// The paper's central accuracy claim: DPR (even FP8 here) tracks the
	// FP32 baseline because the forward pass stays exact.
	d := func() *Dataset { return NewDataset(4, 2, 8, 0.3, 7) }
	cfg := RunConfig{Minibatch: 8, Steps: 150, LR: 0.05, ProbeEvery: 30}

	base := Run(NewExecutor(smallNet(8), Options{Seed: 3}), d(), cfg)
	sink := telemetry.New()
	e := NewExecutor(smallNet(8), Options{
		Seed: 3, Mode: DelayedReduced, Format: floatenc.FP8, Telemetry: sink,
	})
	dpr := Run(e, d(), cfg)

	// Held bytes mean held bytes: what the step reports is the sum over
	// the packed containers it actually held, not a size formula.
	var held int64
	for i := range e.encSlots {
		held += e.encSlots[i].Bytes()
	}
	sm, _ := sink.LastMemSample()
	if held == 0 || e.StashBytes != held || sm.HeldBytes != held {
		t.Fatalf("StashBytes %d, MemSample.HeldBytes %d, containers hold %d", e.StashBytes, sm.HeldBytes, held)
	}

	bl, dl := FinalAccuracyLoss(base), FinalAccuracyLoss(dpr)
	if math.Abs(bl-dl) > 0.15 {
		t.Fatalf("DPR-FP8 accuracy loss %v deviates from FP32 %v", dl, bl)
	}
	if Diverged(dpr, 4) {
		t.Fatal("DPR-FP8 must train")
	}
}

func TestDelayedForwardIsExactAllReducedIsNot(t *testing.T) {
	// The mechanism behind Figure 12: DPR keeps the forward pass
	// bit-identical to FP32 (reduction happens only on the stashed copy),
	// while immediate reduction perturbs every layer's output and the
	// error compounds downstream.
	d := NewDataset(4, 2, 8, 0.3, 11)
	x, labels := d.Batch(8)

	logits := func(mode PrecisionMode) *tensor.Tensor {
		opt := Options{Seed: 5}
		if mode != FullPrecision {
			opt.Mode = mode
			opt.Format = floatenc.FP8
		}
		g := smallNet(8)
		e := NewExecutor(g, opt)
		e.Forward(x, labels, false)
		return e.Output(g.Lookup("fc")).Clone()
	}

	base := logits(FullPrecision)
	delayed := logits(DelayedReduced)
	all := logits(AllReduced)

	if !delayed.Equal(base) {
		t.Fatal("DelayedReduced forward must be bit-identical to FP32")
	}
	var maxErr float64
	for i := range base.Data {
		if e := math.Abs(float64(all.Data[i] - base.Data[i])); e > maxErr {
			maxErr = e
		}
	}
	if maxErr == 0 {
		t.Fatal("AllReduced forward should deviate from FP32")
	}
}

func TestAllReducedErrorCompoundsWithDepth(t *testing.T) {
	// The deeper the layer, the larger the immediate-reduction error
	// relative to FP32 — the reason conventional schemes lose accuracy.
	g1, g2 := networks.TinyVGG(4, 4), networks.TinyVGG(4, 4)
	e1 := NewExecutor(g1, Options{Seed: 7})
	e2 := NewExecutor(g2, Options{Seed: 7, Mode: AllReduced, Format: floatenc.FP8})
	d := NewDataset(4, 3, 32, 0.3, 8)
	x, labels := d.Batch(4)
	e1.Forward(x, labels, false)
	e2.Forward(x, labels, false)

	relErr := func(name string) float64 {
		a := e1.Output(g1.Lookup(name))
		b := e2.Output(g2.Lookup(name))
		var num, den float64
		for i := range a.Data {
			num += math.Abs(float64(b.Data[i] - a.Data[i]))
			den += math.Abs(float64(a.Data[i]))
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	shallow := relErr("relu2") // first activation
	deep := relErr("relu16")   // last conv activation
	if deep <= shallow {
		t.Fatalf("error should compound with depth: shallow %v, deep %v", shallow, deep)
	}
}

func TestEncodedTrainingMatchesQuantizedTraining(t *testing.T) {
	// Running the REAL encoder kernels (Binarize/SSDC/DPR round trips)
	// must produce step-for-step identical losses to in-place DPR
	// quantization for the stashes DPR covers, and must train correctly.
	g := smallNet(8)
	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	e := NewExecutor(g, Options{Seed: 9, Encodings: a})
	d := NewDataset(4, 2, 8, 0.3, 13)
	recs := Run(e, d, RunConfig{Minibatch: 8, Steps: 120, LR: 0.05, ProbeEvery: 40})
	if Diverged(recs, 4) {
		t.Fatal("encoded training diverged")
	}
	if FinalAccuracyLoss(recs) > 0.3 {
		t.Fatalf("encoded training accuracy loss = %v", FinalAccuracyLoss(recs))
	}
	// The executor must report a smaller stashed footprint than FP32.
	var fp32Stash int64
	for _, n := range g.Nodes {
		if a.OutputStashed(n) || a.ByNode[n.ID] != nil {
			fp32Stash += n.OutShape.Bytes()
		}
	}
	if e.StashBytes >= fp32Stash {
		t.Fatalf("encoded stash bytes %d should be < FP32 %d", e.StashBytes, fp32Stash)
	}
}

func TestLosslessEncodingsAreExact(t *testing.T) {
	// With only Binarize+SSDC (no DPR), one training step must produce
	// bit-identical parameters to the baseline: the encodings are lossless.
	g1, g2 := smallNet(4), smallNet(4)
	a := encoding.Analyze(g2, encoding.Lossless())
	e1 := NewExecutor(g1, Options{Seed: 21})
	e2 := NewExecutor(g2, Options{Seed: 21, Encodings: a})
	d1 := NewDataset(4, 2, 8, 0.3, 22)
	d2 := NewDataset(4, 2, 8, 0.3, 22)
	for i := 0; i < 5; i++ {
		x1, l1 := d1.Batch(4)
		x2, l2 := d2.Batch(4)
		loss1, _ := e1.Step(x1, l1, 0.05)
		loss2, _ := e2.Step(x2, l2, 0.05)
		if loss1 != loss2 {
			t.Fatalf("step %d: lossless encodings changed the loss: %v vs %v", i, loss1, loss2)
		}
	}
	for _, n := range g1.Nodes {
		p1 := e1.Params(n)
		p2 := e2.Params(g2.Lookup(n.Name))
		for j := range p1 {
			if !p1[j].Equal(p2[j]) {
				t.Fatalf("%s param %d diverged under lossless encodings", n.Name, j)
			}
		}
	}
}

func TestReLUSparsityGrowsDuringTraining(t *testing.T) {
	// Figure 14's mechanism: sparsity starts near 50% (random weights,
	// symmetric activations) and grows as training shapes the features.
	g := networks.TinyVGG(8, 4)
	e := NewExecutor(g, Options{Seed: 17})
	d := NewDataset(4, 3, 32, 0.3, 18)
	recs := Run(e, d, RunConfig{
		Minibatch: 8, Steps: 40, LR: 0.01, ProbeEvery: 10, ProbeSparsity: true,
	})
	first := AverageSparsity(recs[0])
	last := AverageSparsity(recs[len(recs)-1])
	if first < 0.2 || first > 0.8 {
		t.Fatalf("initial sparsity %v implausible", first)
	}
	if last <= first-0.05 {
		t.Fatalf("sparsity should not collapse: %v -> %v", first, last)
	}
	// The measured-sparsity adapter exposes per-layer values.
	model := MeasuredSparsity(recs[len(recs)-1])
	found := false
	for _, n := range g.Nodes {
		if n.Kind() == layers.ReLU && model(n) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("measured sparsity model returned nothing")
	}
}

func TestDatasetBalanceAndDeterminism(t *testing.T) {
	d1 := NewDataset(4, 2, 8, 0.3, 5)
	d2 := NewDataset(4, 2, 8, 0.3, 5)
	x1, l1 := d1.Batch(64)
	x2, l2 := d2.Batch(64)
	if !x1.Equal(x2) {
		t.Fatal("same seed must give same data")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("labels must match")
		}
	}
	counts := map[int]int{}
	for _, l := range l1 {
		counts[l]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] == 0 {
			t.Fatalf("class %d never sampled", c)
		}
	}
}

func TestExecutorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reduced mode without format must panic")
		}
	}()
	NewExecutor(smallNet(2), Options{Mode: DelayedReduced})
}

func TestExecutorPanicsOnWrongInputShape(t *testing.T) {
	e := NewExecutor(smallNet(2), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input shape must panic")
		}
	}()
	e.Forward(tensor.New(2, 3, 8, 8), nil, true)
}

func TestPrecisionModeNames(t *testing.T) {
	if FullPrecision.String() != "Baseline-FP32" ||
		AllReduced.String() != "All-Reduced" ||
		DelayedReduced.String() != "Gist-DPR" {
		t.Error("mode names wrong")
	}
}

func TestBatchNormResidualNetworkTrains(t *testing.T) {
	// Exercise Add/BatchNorm backward paths end to end with a 2-block
	// CIFAR ResNet.
	g := networks.ResNetCIFAR(2, 8) // n=1: 6 convs + stem + projections
	e := NewExecutor(g, Options{Seed: 31})
	d := NewDataset(4, 3, 32, 0.3, 32)
	recs := Run(e, d, RunConfig{Minibatch: 2, Steps: 12, LR: 0.02, ProbeEvery: 4})
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	last := recs[len(recs)-1]
	if math.IsNaN(last.Loss) || math.IsInf(last.Loss, 0) {
		t.Fatal("ResNet training produced non-finite loss")
	}
	if last.Loss >= recs[0].Loss*1.2 {
		t.Fatalf("ResNet loss should not blow up: %v -> %v", recs[0].Loss, last.Loss)
	}
}
