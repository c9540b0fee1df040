package train

// Memory-schedule tests: the executor runs the schedule the planner planned
// (every feature map retired at its last forward use, a decode target taken
// when its fetch starts), and the edges that moving the encode into Forward
// creates.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/liveness"
	"gist/internal/memplan"
	"gist/internal/networks"
	"gist/internal/race"
)

// convChain is the benchmark's StashNet shape: wide maps over 1x1
// convolutions, so feature maps dominate the footprint.
func convChain(mb int) *graph.Graph {
	g := graph.New()
	last := g.MustAdd("input", layers.NewInput(mb, 4, 64, 64))
	seq := 0
	add := func(prefix string, op layers.Op) {
		seq++
		last = g.MustAdd(fmt.Sprintf("%s%d", prefix, seq), op, last)
	}
	for _, pool := range []int{0, 2, 2, 4} {
		add("conv", layers.NewConv2D(8, 1, 1, 0))
		add("relu", layers.NewReLU())
		if pool > 0 {
			add("pool", layers.NewMaxPool(pool, pool, 0))
		}
	}
	add("fc", layers.NewFC(32))
	add("relu", layers.NewReLU())
	add("fc", layers.NewFC(4))
	g.MustAdd("loss", layers.NewSoftmaxXent(), last)
	return g
}

// fp32Plan is memplan.PlanDynamic over the buffers that are pooled FP32
// tensors at runtime, plus the largest single such buffer. On a mismatch,
// describe names the buffers live at the planned peak.
type fp32Plan struct {
	peak, largest int64
	describe      string
}

func planFP32(g *graph.Graph, a *encoding.Analysis) fp32Plan {
	tl := graph.BuildTimeline(g)
	bufs := memplan.PooledBuffers(liveness.Analyze(g, tl, liveness.Options{Analysis: a}))
	p := fp32Plan{peak: memplan.PlanDynamic(bufs)}
	for _, b := range bufs {
		p.largest = max(p.largest, b.Bytes)
	}
	for t := 0; t < tl.Len(); t++ {
		var live int64
		var names []string
		for _, b := range bufs {
			if b.Start <= t && t <= b.End {
				live += b.Bytes
				names = append(names, b.String())
			}
		}
		if live == p.peak {
			p.describe = fmt.Sprintf("planned peak at step %d (%s of %s): %s",
				t, tl.Steps[t].Phase, tl.Steps[t].Node.Name, strings.Join(names, " "))
			break
		}
	}
	return p
}

// observedSchedule is what three pooled steps on a private pool measured.
type observedSchedule struct {
	peak         int64 // bufpool PeakLiveBytes: bytes requested, at their high-water mark
	footprint    int64 // HeldBytes + InUseBytes once the steps are done
	afterForward int64 // InUseBytes right after a training Forward
}

func observeSchedule(t *testing.T, g *graph.Graph, a *encoding.Analysis) observedSchedule {
	t.Helper()
	pool := bufpool.New()
	e := NewExecutor(g, Options{Seed: 5, Encodings: a, Pool: pool})
	defer e.Close()
	in := g.InputNodes()[0].OutShape
	d := NewDataset(4, in[1], in[2], 0.3, 6)
	for i := 0; i < 3; i++ {
		x, labels := d.Batch(in[0])
		e.Step(x, labels, 0.01)
	}
	st := pool.Stats()
	obs := observedSchedule{peak: st.PeakLiveBytes, footprint: st.HeldBytes + st.InUseBytes}
	x, labels := d.Batch(in[0])
	e.Forward(x, labels, true)
	obs.afterForward = pool.Stats().InUseBytes
	return obs
}

// TestExecutorPeakMatchesPlan is ROADMAP aim 3's "the executor runs the
// schedule the planner planned", by measurement: on an unencoded graph the
// pool's peak of requested bytes IS memplan.PlanDynamic over the FP32 buffer
// classes, to the byte. Under encodings it sits at most the one-node-ahead
// prefetch above the plan (two maps where MaxPool's raw Needs still decode
// what the analysis elides), strictly below the unencoded peak where maps
// dominate, and everything but the sink output has left the pool by the end
// of Forward.
func TestExecutorPeakMatchesPlan(t *testing.T) {
	nets := []struct {
		name          string
		g             func() *graph.Graph
		gistIsLower   bool // the encoded FP32 peak and pool footprint are strictly below the baseline's
		skipUnderRace bool
	}{
		{"TinyCNN", func() *graph.Graph { return networks.TinyCNN(8, 4) }, false, false},
		{"TinyVGG", func() *graph.Graph { return networks.TinyVGG(2, 8) }, true, false},
		{"ConvChain", func() *graph.Graph { return convChain(4) }, false, false},
		{"ResNetCIFAR20", func() *graph.Graph { return networks.ResNetCIFAR(4, 20) }, true, true},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			if n.skipUnderRace && race.Enabled {
				t.Skip("ResNet-20 steps are too slow under the race detector")
			}
			g := n.g()
			plan := planFP32(g, nil)
			base := observeSchedule(t, g, nil)
			if base.peak != plan.peak {
				t.Errorf("unencoded: observed peak %d B, planned %d B (diff %+d)\n%s",
					base.peak, plan.peak, base.peak-plan.peak, plan.describe)
			}

			g = n.g()
			a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
			gplan := planFP32(g, a)
			gist := observeSchedule(t, g, a)
			if gist.peak < gplan.peak || gist.peak > gplan.peak+2*gplan.largest {
				t.Errorf("encoded: observed peak %d B outside [planned %d, planned + 2 x largest map %d]\n%s",
					gist.peak, gplan.peak, gplan.peak+2*gplan.largest, gplan.describe)
			}
			if n.gistIsLower {
				if gist.peak >= base.peak {
					t.Errorf("encoded FP32 peak %d B not below the unencoded %d B", gist.peak, base.peak)
				}
				if gist.footprint >= base.footprint {
					t.Errorf("pool footprint under Gist %d B not below the baseline's %d B", gist.footprint, base.footprint)
				}
			}
			// Right after Forward only the sink outputs are checked out: every
			// other map is encoded, aliased into a container, or recycled.
			if sinks := pooledBytes(g.OutputNodes()); gist.afterForward != sinks {
				t.Errorf("encoded: %d B checked out after Forward, want the sink outputs' %d B", gist.afterForward, sinks)
			}
			t.Logf("unencoded peak %d = planned %d | encoded peak %d (planned %d) | pool %d -> %d B",
				base.peak, plan.peak, gist.peak, gplan.peak, base.footprint, gist.footprint)
		})
	}
}

// pooledBytes is what a pool charges (class capacity, not bytes requested)
// for holding the outputs of the given nodes, read off a scratch pool.
func pooledBytes(nodes []*graph.Node) int64 {
	p := bufpool.New()
	for _, n := range nodes {
		p.Get(n.OutShape...)
	}
	return p.Stats().InUseBytes
}

// flatGrads concatenates every accumulated parameter gradient in graph-node
// order, as flatParams does the parameters.
func flatGrads(e *Executor) []float32 {
	var out []float32
	for _, n := range e.G.Nodes {
		for _, g := range e.grads[n.ID] {
			out = append(out, g.Data...)
		}
	}
	return out
}

// noFutureArmed fails the test if any decode future is still armed.
func noFutureArmed(t *testing.T, e *Executor) {
	t.Helper()
	if e.nFutures != 0 {
		t.Errorf("%d futures still counted as armed", e.nFutures)
	}
	for i := range e.futures {
		if e.futures[i].armed {
			t.Errorf("future of %q still armed", e.futures[i].node)
		}
	}
}

// TestInferenceForwardThenBackward extends the gradcheck pattern — an
// inference Forward followed by Backward, which must then stash every node
// itself — to a pooled, encoded executor: on a graph with no dropout or
// batch norm the gradients are bit-equal to those of a training Forward,
// which retired every map on the way.
func TestInferenceForwardThenBackward(t *testing.T) {
	withCodec(t, encoding.Codec{ChunkElems: 768})
	grads := func(training bool) []float32 {
		g := richlessNet(8)
		pool := bufpool.New()
		e := NewExecutor(g, Options{
			Seed: 11, Pool: pool, Integrity: true,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		})
		defer e.Close()
		x, labels := NewDataset(4, 2, 8, 0.3, 12).Batch(8)
		e.Forward(x, labels, training)
		if err := e.Backward(); err != nil {
			t.Fatalf("training=%t: Backward: %v", training, err)
		}
		return flatGrads(e)
	}
	want := grads(true)
	paramsBitsEqual(t, grads(false), want, "gradients after an inference Forward vs a training one")
	if !slices.ContainsFunc(want, func(v float32) bool { return v != 0 }) {
		t.Fatal("every gradient is zero; the comparison proved nothing")
	}
}

// richlessNet is richNet without batch norm and dropout, whose forward
// results depend on the training flag: a residual Add over a two-consumer
// ReLU (retire order differs from node order), max pooling and two FCs.
func richlessNet(mb int) *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(mb, 2, 8, 8))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), in)
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	c2 := g.MustAdd("conv2", layers.NewConv2D(8, 3, 1, 1), r1)
	r2 := g.MustAdd("relu2", layers.NewReLU(), c2)
	add := g.MustAdd("add", layers.NewAdd(), r1, r2)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), add)
	fc1 := g.MustAdd("fc1", layers.NewFC(16), p1)
	r3 := g.MustAdd("relu3", layers.NewReLU(), fc1)
	fc2 := g.MustAdd("fc2", layers.NewFC(4), r3)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc2)
	return g
}

// TestInjectorDefersRetirement pins the one predicate of the schedule: under
// an enabled injector Forward retires nothing — every output is still
// checked out when it returns — and Backward stashes in node order, so the
// injector's sequential draws land on the same nodes as ever. The check is a
// replay: a second injector with the same seed, asked about the assigned
// nodes in node order until its first hit per attempt, must log the same
// events. ResNet-20's retire order differs from its node order (a block's
// input outlives the block's first conv), so a Forward that retired under
// the injector would attribute the hits to other nodes.
func TestInjectorDefersRetirement(t *testing.T) {
	nets := []struct {
		name          string
		g             *graph.Graph
		rate          float64
		attempts      int
		skipUnderRace bool
	}{
		{"chain", smallNet(4), 0.3, 12, false},
		{"ResNetCIFAR20", networks.ResNetCIFAR(2, 20), 0.02, 6, true},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			if n.skipUnderRace && race.Enabled {
				t.Skip("ResNet-20 steps are too slow under the race detector")
			}
			g := n.g
			a := encoding.Analyze(g, encoding.Lossless())
			cfg := faults.Config{Seed: 21, EncodeFailRate: n.rate}
			inj, replay := faults.New(cfg), faults.New(cfg)
			pool := bufpool.New()
			e := NewExecutor(g, Options{Seed: 3, Encodings: a, Faults: inj, Pool: pool})
			defer e.Close()
			in := g.InputNodes()[0].OutShape
			d := NewDataset(4, in[1], in[2], 0.3, 4)

			x, labels := d.Batch(in[0])
			e.Forward(x, labels, true)
			if got, every := pool.Stats().InUseBytes, pooledBytes(g.Nodes); got != every {
				t.Fatalf("%d B checked out after Forward under an injector, want every output's %d B", got, every)
			}

			failed := 0
			for i := 1; i <= n.attempts; i++ {
				inj.BeginStep(i)
				replay.BeginStep(i)
				x, labels := d.Batch(in[0])
				_, _, err := e.TryStep(x, labels, 0.01)
				var want error
				for _, node := range g.Nodes {
					if a.ByNode[node.ID] == nil {
						continue
					}
					if want = replay.FailEncode(node.Name); want != nil {
						break
					}
				}
				if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
					t.Fatalf("attempt %d: TryStep returned %v, the node-order replay %v", i, err, want)
				}
				if err != nil {
					failed++
				}
			}
			got, want := inj.Events(), replay.Events()
			if len(got) != len(want) {
				t.Fatalf("%d injected events, the node-order replay has %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: %+v, the node-order replay has %+v", i, got[i], want[i])
				}
			}
			if failed == 0 || failed == n.attempts {
				t.Fatalf("%d of %d attempts failed; pick a rate that exercises both outcomes", failed, n.attempts)
			}
		})
	}
}

// TestForwardStashFailureSurfacesFromBackward drives a real, non-injected
// Put failure at retirement time: a capped store whose spill directory is a
// regular file cannot create its scratch file at the first eviction. The
// error must come out of the step before any gradient accumulates, leave no
// armed future and no parameter update, and — once the path is a directory —
// the next step must be bit-identical to one that never failed.
func TestForwardStashFailureSurfacesFromBackward(t *testing.T) {
	withCodec(t, encoding.Codec{ChunkElems: 768})
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(spillDir string) (*Executor, *bufpool.Pool) {
		g := richlessNet(8)
		pool := bufpool.New()
		return NewExecutor(g, Options{
			Seed: 13, Pool: pool, StashBudget: 2048, SpillDir: spillDir,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		}), pool
	}
	e, pool := mk(dir)
	defer e.Close()
	x, labels := NewDataset(4, 2, 8, 0.3, 14).Batch(8)

	_, _, err := e.TryStep(x, labels, 0.05)
	if err == nil || !strings.Contains(err.Error(), "create spill file") {
		t.Fatalf("TryStep = %v, want the store's spill-file creation failure", err)
	}
	if errors.Is(err, faults.ErrInjected) {
		t.Fatalf("the failure must be a real one, got injected %v", err)
	}
	if e.stashErr == nil {
		t.Fatal("the failure did not come from a forward-time retirement")
	}
	noFutureArmed(t, e)
	if slices.ContainsFunc(flatGrads(e), func(v float32) bool { return v != 0 }) {
		t.Fatal("a gradient accumulated before the stash failure surfaced")
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	loss, errs, err := e.TryStep(x, labels, 0.05)
	if err != nil {
		t.Fatalf("step on a good directory: %v", err)
	}
	if e.StashStore().Stats().Evictions == 0 {
		t.Fatal("the budget evicted nothing; the failing path was not the one retried")
	}
	ref, _ := mk(t.TempDir())
	defer ref.Close()
	refLoss, refErrs, err := ref.TryStep(x, labels, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if loss != refLoss || errs != refErrs {
		t.Fatalf("step after the failure: loss %v errs %d, never-failed %v %d", loss, errs, refLoss, refErrs)
	}
	paramsBitsEqual(t, flatParams(e), flatParams(ref), "step after the failure vs a never-failed run")
	e.Close()
	if got := pool.Stats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d B after Close", got)
	}
}
