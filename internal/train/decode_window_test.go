package train

// Decode-window tests: Backward starts decode futures in the order their
// consumers first read them, a window ahead of the consumer, and a future no
// consumer reads neither stalls the window nor outlives the pass.

import (
	"math"
	"slices"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/race"
)

// kernelProbe wraps a node's operator so the test sees the executor's state,
// and what it hands the kernel, at the moment that node's forward (forward)
// or backward (before) kernel runs. A nil hook is skipped.
type kernelProbe struct {
	layers.Op
	before  func(ctx *layers.BwdCtx)
	forward func(ctx *layers.FwdCtx)
}

func (p *kernelProbe) Forward(ctx *layers.FwdCtx) {
	if p.forward != nil {
		p.forward(ctx)
	}
	p.Op.Forward(ctx)
}

func (p *kernelProbe) Backward(ctx *layers.BwdCtx) {
	if p.before != nil {
		p.before(ctx)
	}
	p.Op.Backward(ctx)
}

// probeKernels calls check(n, ctx) just before each backward kernel of e's
// graph but the loss's, whose operator the executor reads the loss value
// from.
func probeKernels(e *Executor, check func(n *graph.Node, ctx *layers.BwdCtx)) {
	for _, n := range e.G.Nodes {
		if n.Kind() != layers.SoftmaxXent {
			n.Op = &kernelProbe{Op: n.Op, before: func(ctx *layers.BwdCtx) { check(n, ctx) }}
		}
	}
}

// probeForward calls check(n) just before each forward kernel of e's graph
// but the loss's (see probeKernels).
func probeForward(e *Executor, check func(n *graph.Node)) {
	for _, n := range e.G.Nodes {
		if n.Kind() != layers.SoftmaxXent {
			n.Op = &kernelProbe{Op: n.Op, forward: func(*layers.FwdCtx) { check(n) }}
		}
	}
}

// startedPrefix returns how many leading entries of bwdOrder have a started
// future, and fails the test unless every started entry is among them: the
// window starts futures in order, never skipping one.
func startedPrefix(t *testing.T, e *Executor) int {
	t.Helper()
	k := 0
	for k < len(e.bwdOrder) && e.futures[e.bwdOrder[k]].started.Load() {
		k++
	}
	for _, id := range e.bwdOrder[k:] {
		if e.futures[id].started.Load() {
			t.Fatalf("future of %q started before %q, which is read first",
				e.futures[id].node, e.futures[e.bwdOrder[k]].node)
		}
	}
	return k
}

// TestDecodeWindowStartsInFirstUseOrder pins the window's schedule on the
// StashNet chain and on two residual graphs, whose Add nodes read two
// stashes and whose blocks' inputs outlive their first readers. bwdOrder
// must be the first-backward-use order the graph's timeline computes under
// the needs the executor runs on (the analysis' effective needs: a
// Binarize-rewritten MaxPool reads no stash, a Binarize ReLU reads its mask);
// and when any backward kernel runs, the started futures are a prefix of
// that order reaching decodeWindow entries past the last stash the kernel
// reads — so every future was started before its consumer's kernel, by the
// window rather than by the consumer.
func TestDecodeWindowStartsInFirstUseOrder(t *testing.T) {
	nets := []struct {
		name          string
		g             func() *graph.Graph
		skipUnderRace bool
	}{
		{"ConvChain", func() *graph.Graph { return convChain(2) }, false},
		{"ResidualAdd", func() *graph.Graph { return richlessNet(4) }, false},
		{"ResNetCIFAR8", func() *graph.Graph { return networks.ResNetCIFAR(2, 8) }, true},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			if n.skipUnderRace && race.Enabled {
				t.Skip("ResNet steps are too slow under the race detector")
			}
			g := n.g()
			a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
			e := NewExecutor(g, Options{Seed: 4, Encodings: a, Pool: bufpool.New(),
				Codec: &encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 768}})
			defer e.Close()

			tl := graph.BuildTimeline(g)
			want := 0
			for _, nd := range g.Nodes {
				if e.assign[nd.ID] != nil && firstRead(tl, e, nd) >= 0 {
					want++
				}
			}
			if len(e.bwdOrder) != want || want == 0 {
				t.Fatalf("bwdOrder lists %d stashes, want the %d encoded ones backward reads", len(e.bwdOrder), want)
			}
			for i := 1; i < len(e.bwdOrder); i++ {
				prev, cur := g.Nodes[e.bwdOrder[i-1]], g.Nodes[e.bwdOrder[i]]
				if firstRead(tl, e, prev) > firstRead(tl, e, cur) {
					t.Fatalf("bwdOrder puts %q before %q, which backward reads first", prev.Name, cur.Name)
				}
			}

			kernels := 0
			probeKernels(e, func(nd *graph.Node, _ *layers.BwdCtx) {
				kernels++
				last := -1
				needs := e.needs[nd.ID]
				if needs.X {
					for _, in := range nd.Inputs {
						last = max(last, e.futures[in.ID].pos)
					}
				}
				if needs.Y {
					last = max(last, e.futures[nd.ID].pos)
				}
				reach := min(last+1+decodeWindow, len(e.bwdOrder))
				if k := startedPrefix(t, e); k < reach {
					t.Fatalf("at %q's kernel %d futures started, want the first %d", nd.Name, k, reach)
				}
			})
			in := g.InputNodes()[0].OutShape
			x, labels := NewDataset(4, in[1], in[2], 0.3, 5).Batch(in[0])
			for step := 0; step < 2; step++ {
				kernels = 0
				if _, _, err := e.TryStep(x, labels, 0.01); err != nil {
					t.Fatal(err)
				}
				if kernels == 0 {
					t.Fatal("no backward kernel ran")
				}
				noFutureArmed(t, e)
			}
		})
	}
}

// firstRead is the timeline's backward step that first reads nd's stash
// under the needs e runs on, or -1 when no backward kernel reads it.
func firstRead(tl *graph.Timeline, e *Executor, nd *graph.Node) int {
	first := -1
	use := func(s int) {
		if first < 0 || s < first {
			first = s
		}
	}
	if e.needs[nd.ID].Y {
		use(tl.BackwardStep(nd))
	}
	for _, c := range nd.Consumers() {
		if e.needs[c.ID].X {
			use(tl.BackwardStep(c))
		}
	}
	return first
}

// TestExecutorDeadBranchSkippedEncoded is TestExecutorDeadBranchSkipped
// under encodings, a 2-worker codec and a spilling budget. The dead branch's
// ReLU is a sink that is not the loss: no gradient reaches it, so its stash
// is encoded, spilled and armed, and no consumer ever reads it. Its future
// sits between two live ones in first-use order: the window must still
// start the live future after it before that one's consumer runs, the step
// must complete, Backward must leave no future armed, and Close must return
// every pooled byte.
func TestExecutorDeadBranchSkippedEncoded(t *testing.T) {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(2, 2, 12, 12))
	c1 := g.MustAdd("conv1", layers.NewConv2D(4, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	dc := g.MustAdd("deadconv", layers.NewConv2D(4, 3, 1, 1), r1) // dead branch
	g.MustAdd("deadrelu", layers.NewReLU(), dc)
	fc := g.MustAdd("fc", layers.NewFC(3), r1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)

	pool := bufpool.New()
	e := NewExecutor(g, Options{
		Seed: 19, Pool: pool, StashBudget: 1024, SpillDir: t.TempDir(),
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		Codec:     &encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 256},
	})
	dead := g.Lookup("deadrelu")
	deadPos := e.futures[dead.ID].pos
	if e.assign[dead.ID] == nil || deadPos < 0 || deadPos == len(e.bwdOrder)-1 {
		t.Fatalf("dead ReLU at %d of %d in bwdOrder (assigned: %t); want it encoded with a live stash after it",
			deadPos, len(e.bwdOrder), e.assign[dead.ID] != nil)
	}
	if e.bwdOrder[deadPos+1] != in.ID {
		t.Fatalf("bwdOrder %v: want the input's stash right after the dead ReLU's", e.bwdOrder)
	}
	var deadKernels []string
	probeKernels(e, func(n *graph.Node, _ *layers.BwdCtx) {
		if n.Name == "deadconv" || n.Name == "deadrelu" {
			deadKernels = append(deadKernels, n.Name)
		}
		// relu1's is the last kernel before conv1 reads the input's stash.
		if n.Name == "relu1" && !e.futures[in.ID].started.Load() {
			t.Fatalf("at relu1's kernel the input's future (after the dead one, %d of %v) has not started: the window stalled",
				deadPos, e.bwdOrder)
		}
	})

	x, labels := NewDataset(3, 2, 12, 0.3, 20).Batch(2)
	for step := 0; step < 3; step++ {
		loss, _, err := e.TryStep(x, labels, 0.01)
		if err != nil || math.IsNaN(loss) {
			t.Fatalf("step %d: loss %v, err %v", step, loss, err)
		}
		noFutureArmed(t, e)
	}
	if len(deadKernels) != 0 {
		t.Fatalf("dead-branch kernels ran: %v", deadKernels)
	}
	if st := e.StashStore().Stats(); st.Evictions == 0 {
		t.Fatal("the budget evicted nothing; no stash spilled")
	}
	for _, nd := range []*graph.Node{dc, dead} {
		for _, gr := range e.grads[nd.ID] {
			if slices.ContainsFunc(gr.Data, func(v float32) bool { return v != 0 }) {
				t.Fatalf("dead branch %q received gradient", nd.Name)
			}
		}
	}
	e.Close()
	if got := pool.Stats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d B after Close", got)
	}
}
