package train

import (
	"math"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/tensor"
)

// lossAt runs a forward pass and returns the scalar loss, for numerical
// differentiation at whole-graph level.
func lossAt(e *Executor, x *tensor.Tensor, labels []int) float64 {
	e.Forward(x, labels, false) // eval mode: deterministic (no dropout)
	loss, _ := e.lossOf(labels)
	return loss
}

// graphGradCheck verifies the executor's parameter gradients against
// central finite differences of the end-to-end loss.
func graphGradCheck(t *testing.T, g *graph.Graph, seed uint64) {
	t.Helper()
	e := NewExecutor(g, Options{Seed: seed})
	d := NewDataset(3, g.InputNodes()[0].OutShape[1], g.InputNodes()[0].OutShape[2], 0.3, seed+1)
	x, labels := d.Batch(g.InputNodes()[0].OutShape[0])

	// Analytic gradients (training mode off for determinism: BatchNorm in
	// eval mode uses running stats, so use graphs without BN here, or
	// accept train-mode BN with fixed data — we use eval-consistent ops).
	e.Forward(x, labels, false)
	if err := e.Backward(); err != nil {
		t.Fatalf("Backward: %v", err)
	}

	const h = 1e-3
	for _, n := range g.Nodes {
		params := e.Params(n)
		grads := e.grads[n.ID]
		for pi, p := range params {
			stride := max(1, p.NumElements()/8)
			for i := 0; i < p.NumElements(); i += stride {
				orig := p.Data[i]
				p.Data[i] = orig + h
				plus := lossAt(e, x, labels)
				p.Data[i] = orig - h
				minus := lossAt(e, x, labels)
				p.Data[i] = orig
				numeric := (plus - minus) / (2 * h)
				got := float64(grads[pi].Data[i])
				if math.Abs(numeric-got) > 5e-3*(1+math.Abs(numeric)) {
					t.Errorf("%s param %d[%d]: analytic %v vs numeric %v",
						n.Name, pi, i, got, numeric)
				}
			}
		}
	}
}

func TestExecutorGradCheckChain(t *testing.T) {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(3, 2, 8, 8))
	c1 := g.MustAdd("conv1", layers.NewConv2D(3, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r1)
	fc := g.MustAdd("fc", layers.NewFC(3), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	graphGradCheck(t, g, 7)
}

func TestExecutorGradCheckResidualDiamond(t *testing.T) {
	// Diamond topology: conv output consumed by two branches that re-join
	// in an Add. Exercises gradient accumulation across consumers.
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(2, 2, 6, 6))
	c1 := g.MustAdd("conv1", layers.NewConv2D(3, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	b1 := g.MustAdd("branch1", layers.NewConv2D(3, 3, 1, 1), r1)
	b2 := g.MustAdd("branch2", layers.NewConv2D(3, 1, 1, 0), r1)
	sum := g.MustAdd("add", layers.NewAdd(), b1, b2)
	fc := g.MustAdd("fc", layers.NewFC(3), sum)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	graphGradCheck(t, g, 11)
}

func TestExecutorGradCheckConcatBranches(t *testing.T) {
	// Inception-style: two conv branches concatenated.
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(2, 2, 6, 6))
	b1 := g.MustAdd("branch1", layers.NewConv2D(2, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), b1)
	b2 := g.MustAdd("branch2", layers.NewConv2D(3, 1, 1, 0), in)
	r2 := g.MustAdd("relu2", layers.NewReLU(), b2)
	cat := g.MustAdd("concat", layers.NewConcat(), r1, r2)
	fc := g.MustAdd("fc", layers.NewFC(3), cat)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	graphGradCheck(t, g, 13)
}

// TestNoGradientForGraphInput: a Conv or FC reading the graph input gets a
// nil dX, as liveness plans no gradient there; any other consumer still
// gets a buffer, and the step trains.
func TestNoGradientForGraphInput(t *testing.T) {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(2, 2, 6, 6))
	c1 := g.MustAdd("conv1", layers.NewConv2D(2, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	fa := g.MustAdd("fcA", layers.NewFC(3), r1)
	fb := g.MustAdd("fcB", layers.NewFC(3), in)
	r0 := g.MustAdd("relu0", layers.NewReLU(), in)
	fc := g.MustAdd("fcC", layers.NewFC(3), r0)
	sum := g.MustAdd("add", layers.NewAdd(), fa, fb)
	sum = g.MustAdd("add2", layers.NewAdd(), sum, fc)
	g.MustAdd("loss", layers.NewSoftmaxXent(), sum)

	e := NewExecutor(g, Options{Seed: 19, Pool: bufpool.New()})
	seen := map[string]bool{}
	probeKernels(e, func(n *graph.Node, ctx *layers.BwdCtx) {
		for j, p := range n.Inputs {
			if p.Kind() != layers.Input {
				continue
			}
			seen[n.Name] = true
			if want := n.Kind() != layers.ReLU; (ctx.DIn[j] == nil) != want {
				t.Fatalf("%s: dX nil = %t, want %t", n.Name, ctx.DIn[j] == nil, want)
			}
		}
	})
	x, labels := NewDataset(3, 2, 6, 0.3, 20).Batch(2)
	for step := 0; step < 3; step++ {
		if loss, _ := e.Step(x, labels, 0.01); math.IsNaN(loss) {
			t.Fatalf("step %d: loss NaN", step)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("input consumers probed: %v", seen)
	}
}

func TestExecutorDeadBranchSkipped(t *testing.T) {
	// A node whose output never reaches the loss gets no gradient and
	// must not crash the backward pass.
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(2, 2, 6, 6))
	c1 := g.MustAdd("conv1", layers.NewConv2D(2, 3, 1, 1), in)
	g.MustAdd("deadconv", layers.NewConv2D(4, 3, 1, 1), in) // dead branch
	fc := g.MustAdd("fc", layers.NewFC(3), c1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)

	e := NewExecutor(g, Options{Seed: 19})
	d := NewDataset(3, 2, 6, 0.3, 20)
	x, labels := d.Batch(2)
	loss, _ := e.Step(x, labels, 0.01)
	if math.IsNaN(loss) {
		t.Fatal("dead branch broke the step")
	}
	// The dead conv's gradient stays zero.
	dead := g.Lookup("deadconv")
	for _, gr := range e.grads[dead.ID] {
		for _, v := range gr.Data {
			if v != 0 {
				t.Fatal("dead branch received gradient")
			}
		}
	}
}
