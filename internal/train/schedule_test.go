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
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/tensor"
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

// observedSchedule is what three pooled steps measured in the executor's
// step arena.
type observedSchedule struct {
	peak         int64 // PeakLiveBytes: bytes requested, at their high-water mark
	slab         int64 // HeldBytes + InUseBytes once the steps are done
	afterForward int64 // InUseBytes right after a training Forward
}

func observeSchedule(t *testing.T, g *graph.Graph, a *encoding.Analysis) observedSchedule {
	t.Helper()
	e := NewExecutor(g, Options{Seed: 5, Encodings: a, Pool: bufpool.New()})
	defer e.Close()
	in := g.InputNodes()[0].OutShape
	d := NewDataset(4, in[1], in[2], 0.3, 6)
	for i := 0; i < 3; i++ {
		x, labels := d.Batch(in[0])
		e.Step(x, labels, 0.01)
	}
	st := e.ArenaStats()
	obs := observedSchedule{peak: st.PeakLiveBytes, slab: st.HeldBytes + st.InUseBytes}
	x, labels := d.Batch(in[0])
	e.Forward(x, labels, true)
	obs.afterForward = e.ArenaStats().InUseBytes
	return obs
}

// TestExecutorPeakMatchesPlan is ROADMAP aim 3's "the executor runs the
// schedule the planner planned", by measurement: on an unencoded graph the
// arena's peak of requested bytes IS memplan.PlanDynamic over the FP32
// buffer classes, to the byte. Under encodings it sits at most two maps
// above the plan — decode targets the window takes ahead of their consumers
// — strictly below the unencoded peak where maps dominate, and everything
// but the sink output has left the arena by the end of Forward. Under every
// configuration the slab the arena holds is within one map of that peak.
func TestExecutorPeakMatchesPlan(t *testing.T) {
	nets := []struct {
		name          string
		g             func() *graph.Graph
		gistIsLower   bool // the encoded FP32 peak and slab are strictly below the baseline's
		skipUnderRace bool
	}{
		{"TinyCNN", func() *graph.Graph { return networks.TinyCNN(8, 4) }, false, false},
		{"TinyVGG", func() *graph.Graph { return networks.TinyVGG(2, 8) }, true, false},
		{"ConvChain", func() *graph.Graph { return convChain(4) }, false, false},
		{"ResNetCIFAR20", func() *graph.Graph { return networks.ResNetCIFAR(4, 20) }, true, true},
	}
	// The slab is a packing of the recorded step, so it cannot be below the
	// step's peak; greedy packing by size may leave at most one map of gaps.
	slabNearPeak := func(t *testing.T, cfg string, obs observedSchedule, plan fp32Plan) {
		t.Helper()
		if obs.slab < obs.peak || obs.slab > obs.peak+plan.largest {
			t.Errorf("%s: slab %d B outside [peak %d, peak + largest map %d]", cfg, obs.slab, obs.peak, obs.peak+plan.largest)
		}
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
			slabNearPeak(t, "unencoded", base, plan)

			g = n.g()
			a := encoding.Analyze(g, encoding.Lossless())
			slabNearPeak(t, "lossless", observeSchedule(t, g, a), planFP32(g, a))

			g = n.g()
			a = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
			gplan := planFP32(g, a)
			gist := observeSchedule(t, g, a)
			if gist.peak < gplan.peak || gist.peak > gplan.peak+2*gplan.largest {
				t.Errorf("encoded: observed peak %d B outside [planned %d, planned + 2 x largest map %d]\n%s",
					gist.peak, gplan.peak, gplan.peak+2*gplan.largest, gplan.describe)
			}
			slabNearPeak(t, "encoded", gist, gplan)
			if n.gistIsLower {
				if gist.peak >= base.peak {
					t.Errorf("encoded FP32 peak %d B not below the unencoded %d B", gist.peak, base.peak)
				}
				if gist.slab >= base.slab {
					t.Errorf("slab under Gist %d B not below the baseline's %d B", gist.slab, base.slab)
				}
			}
			// Right after Forward only the sink outputs are live: every
			// other map is encoded, aliased into a container, or recycled.
			var sinks int64
			for _, s := range g.OutputNodes() {
				sinks += s.OutShape.Bytes()
			}
			if gist.afterForward != sinks {
				t.Errorf("encoded: %d B in use after Forward, want the sink outputs' %d B", gist.afterForward, sinks)
			}
			t.Logf("unencoded peak %d = planned %d | encoded peak %d (planned %d) | slab %d -> %d B",
				base.peak, plan.peak, gist.peak, gplan.peak, base.slab, gist.slab)
		})
	}
}

// TestExecutorReadsPlannedNeeds is aim 3's "the executor reads what the
// planner plans", on the four graphs of TestExecutorPeakMatchesPlan under
// both of the paper's configurations. Statically, a node's output has a
// backward read iff the analysis calls it stashed, and a Binarize stash has
// exactly one read: its own ReLU's, of the container as stored. At runtime
// no stash the planner marks NeedsDecode == false gets a tensor — its future
// takes no pool buffer: a Binarize ReLU gets the sealed container's mask; a
// ZVC or SSDC stash reaches each Conv or FC reading it as the future's
// stored-stash reader and its own ReLU as a sign mask (the ZVC container's own
// mask, else the future's). A MaxPool Binarize rewrote is handed no stash.
func TestExecutorReadsPlannedNeeds(t *testing.T) {
	nets := []struct {
		name          string
		g             func() *graph.Graph
		skipUnderRace bool
	}{
		{"TinyCNN", func() *graph.Graph { return networks.TinyCNN(8, 4) }, false},
		{"TinyVGG", func() *graph.Graph { return networks.TinyVGG(2, 8) }, false},
		{"ConvChain", func() *graph.Graph { return convChain(4) }, false},
		{"ResNetCIFAR20", func() *graph.Graph { return networks.ResNetCIFAR(4, 20) }, true},
	}
	cfgs := []struct {
		name string
		cfg  encoding.Config
	}{{"lossless", encoding.Lossless()}, {"lossy-fp16", encoding.LossyLossless(floatenc.FP16)}}
	for _, n := range nets {
		for _, c := range cfgs {
			t.Run(n.name+"/"+c.name, func(t *testing.T) {
				if n.skipUnderRace && race.Enabled {
					t.Skip("ResNet-20 steps are too slow under the race detector")
				}
				g := n.g()
				a := encoding.Analyze(g, c.cfg)
				e := NewExecutor(g, Options{Seed: 3, Encodings: a, Pool: bufpool.New()})
				defer e.Close()
				masks, byImage := 0, 0
				for _, nd := range g.Nodes {
					as := a.ByNode[nd.ID]
					asStored := as != nil && !as.NeedsDecode
					if got := e.futures[nd.ID].asStored; got != asStored {
						t.Errorf("%q: read as stored %t, want %t (assignment %+v)", nd.Name, got, asStored, as)
					}
					if asStored && as.Tech != encoding.Binarize {
						byImage++
					}
					if asStored && as.Tech == encoding.Binarize {
						masks++
						if e.bwdReads[nd.ID] != 1 || !e.needs[nd.ID].Y {
							t.Errorf("%q: %d backward reads of its mask (own Y %t), want its own one",
								nd.Name, e.bwdReads[nd.ID], e.needs[nd.ID].Y)
						}
						continue
					}
					if got, want := e.bwdReads[nd.ID] > 0, a.OutputStashed(nd); got != want {
						t.Errorf("%q: executor backward read %t (%d reads), analysis OutputStashed %t",
							nd.Name, got, e.bwdReads[nd.ID], want)
					}
				}
				if rewritten := len(a.PoolMaps) > 0; masks == 0 && rewritten {
					t.Fatal("the analysis rewrote pools but assigned no Binarize mask")
				}

				maskReads, poolReads, imageReads := 0, 0, 0
				probeKernels(e, func(nd *graph.Node, ctx *layers.BwdCtx) {
					if f := &e.futures[nd.ID]; f.asStored && !f.byImage {
						maskReads++
						if ctx.OutMask == nil || ctx.OutMask != e.encSlots[nd.ID].Mask || ctx.Out != nil || f.dst != nil {
							t.Errorf("%q's kernel: mask %p (container's %p), tensor %p, decode target %p; want the container's mask alone",
								nd.Name, ctx.OutMask, e.encSlots[nd.ID].Mask, ctx.Out, f.dst)
						}
					}
					if f := &e.futures[nd.ID]; f.byImage && e.needs[nd.ID].Y {
						want := f.signs
						if enc := &e.encSlots[nd.ID]; enc.Tech == encoding.ZVC {
							want = enc.ZVC.Mask
						}
						if ctx.OutMask == nil || ctx.OutMask != want || ctx.Out != nil || f.dst != nil {
							t.Errorf("%q's kernel: mask %p (want %p), tensor %p, decode target %p; want its sign mask alone",
								nd.Name, ctx.OutMask, want, ctx.Out, f.dst)
						}
					}
					for _, in := range nd.Inputs {
						if f := &e.futures[in.ID]; f.byImage && e.needs[nd.ID].X {
							imageReads++
							if ctx.InStash != layers.StashReader(f.stored) || ctx.In[0] != nil || f.dst != nil {
								t.Errorf("%q's kernel reads %q: reader %v, tensor %p, decode target %p; want the future's reader alone",
									nd.Name, in.Name, ctx.InStash, ctx.In[0], f.dst)
							}
						}
					}
					if _, ok := a.PoolMaps[nd.ID]; ok {
						poolReads++
						if ctx.Out != nil || ctx.OutMask != nil || slices.ContainsFunc(ctx.In, func(x *tensor.Tensor) bool { return x != nil }) {
							t.Errorf("%q's kernel was handed a stash; the rewritten pool reads only its argmax", nd.Name)
						}
					}
				})
				in := g.InputNodes()[0].OutShape
				x, labels := NewDataset(4, in[1], in[2], 0.3, 6).Batch(in[0])
				for step := 0; step < 2; step++ {
					if _, _, err := e.TryStep(x, labels, 0.01); err != nil {
						t.Fatal(err)
					}
					noFutureArmed(t, e)
				}
				if maskReads != 2*masks || poolReads != 2*len(a.PoolMaps) {
					t.Errorf("2 steps ran %d mask-reading ReLU kernels of %d and %d rewritten pool kernels of %d",
						maskReads, 2*masks, poolReads, 2*len(a.PoolMaps))
				}
				if (byImage > 0) != (imageReads > 0) {
					t.Errorf("%d stashes read by image, %d kernels read them", byImage, imageReads)
				}
			})
		}
	}
}

// fwdProbe wraps a node's operator to run before() ahead of its forward
// kernel.
type fwdProbe struct {
	layers.Op
	before func()
}

func (p *fwdProbe) Forward(ctx *layers.FwdCtx) {
	p.before()
	p.Op.Forward(ctx)
}

// TestMaskCorruptionDetected flips one payload bit of the sealed Binarize
// container of smallNet's relu1 after its encode and before the store takes
// it (from fc's forward kernel, which runs between the two), once held in
// RAM and once under a budget that spills it. The mask is read as stored —
// fetched, the spill page parsed and CRC-checked, the container verified,
// never decoded — and the flip must still surface from the step as
// ErrCorruptStash naming relu1, counted once in RobustnessStats.CRCFailures,
// with every gradient zeroed and no parameter updated; a clean step then
// trains again.
func TestMaskCorruptionDetected(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget int64
	}{{"ram", 0}, {"spill", 64}} {
		t.Run(c.name, func(t *testing.T) {
			g := smallNet(4)
			e := NewExecutor(g, Options{Seed: 8, Integrity: true, Pool: bufpool.New(),
				StashBudget: c.budget, SpillDir: t.TempDir(),
				Encodings: encoding.Analyze(g, encoding.Lossless()),
				Codec:     &encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 256}})
			defer e.Close()
			relu := g.Lookup("relu1")
			if !e.futures[relu.ID].asStored {
				t.Fatal("relu1's stash is not read as stored")
			}
			flip := true
			fc := g.Lookup("fc")
			fc.Op = &fwdProbe{Op: fc.Op, before: func() {
				if flip {
					e.futures[relu.ID].wg.Wait() // the encode has sealed the container
					e.encSlots[relu.ID].FlipBit(5)
				}
			}}
			x, labels := NewDataset(4, 2, 8, 0.3, 9).Batch(4)
			before := flatParams(e)
			_, _, err := e.TryStep(x, labels, 0.05)
			if !errors.Is(err, encoding.ErrCorruptStash) || !strings.Contains(err.Error(), `"relu1"`) {
				t.Fatalf("step = %v, want relu1's corruption as ErrCorruptStash", err)
			}
			if e.Robust.CRCFailures != 1 {
				t.Errorf("CRCFailures = %d, want 1", e.Robust.CRCFailures)
			}
			if slices.ContainsFunc(flatGrads(e), func(v float32) bool { return v != 0 }) {
				t.Error("a gradient survived the failed step")
			}
			paramsBitsEqual(t, flatParams(e), before, "parameters after the failed step")
			if st := e.StashStore().Stats(); (st.Misses > 0) != (c.budget > 0) || e.encSlots[relu.ID].Bytes() <= c.budget {
				t.Errorf("store misses %d at budget %d (mask %d B): the mask was read from the wrong tier",
					st.Misses, c.budget, e.encSlots[relu.ID].Bytes())
			}
			noFutureArmed(t, e)

			flip = false
			if _, _, err := e.TryStep(x, labels, 0.05); err != nil {
				t.Fatalf("clean step after the detection: %v", err)
			}
		})
	}
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

// TestInjectorKeepsRetirement pins that a fault injector does not change
// the schedule: a fault-injected training Forward retires every feature map
// exactly as the fault-free executor does, so the pool holds the same bytes
// when it returns. ResNet-20's retire order differs from its node order (a
// block's input outlives the block's first conv), which order-keyed draws
// could not have followed. The injector flips bits only, so no failure stops
// the retirements part-way; the flips it logged are each detected when
// Backward decodes their stash.
func TestInjectorKeepsRetirement(t *testing.T) {
	nets := []struct {
		name          string
		g             func() *graph.Graph
		skipUnderRace bool
	}{
		{"chain", func() *graph.Graph { return smallNet(4) }, false},
		{"ResNetCIFAR20", func() *graph.Graph { return networks.ResNetCIFAR(2, 20) }, true},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			if n.skipUnderRace && race.Enabled {
				t.Skip("ResNet-20 steps are too slow under the race detector")
			}
			afterForward := func(inj *faults.Injector) (int64, *Executor) {
				g := n.g()
				pool := bufpool.New()
				e := NewExecutor(g, Options{Seed: 3, Integrity: true, Faults: inj, Pool: pool,
					Encodings: encoding.Analyze(g, encoding.Lossless())})
				t.Cleanup(e.Close)
				in := g.InputNodes()[0].OutShape
				x, labels := NewDataset(4, in[1], in[2], 0.3, 4).Batch(in[0])
				e.beginAttempt(1, 0)
				e.Forward(x, labels, true)
				return pool.Stats().InUseBytes, e
			}
			want, _ := afterForward(nil)
			inj := faults.New(faults.Config{Seed: 21, BitFlipRate: 1})
			got, e := afterForward(inj)
			if got != want {
				t.Fatalf("%d B checked out after a fault-injected Forward, %d B fault-free: retirement did not run", got, want)
			}
			flips := inj.Counts()[faults.BitFlip]
			if flips == 0 {
				t.Fatal("no bit flip fired during Forward; the injector was idle")
			}
			if err := e.Backward(); !errors.Is(err, encoding.ErrCorruptStash) {
				t.Fatalf("Backward = %v, want a detected corruption", err)
			}
			if e.Robust.CRCFailures != int64(flips) {
				t.Fatalf("%d CRC detections, %d flips injected", e.Robust.CRCFailures, flips)
			}
			noFutureArmed(t, e)
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
