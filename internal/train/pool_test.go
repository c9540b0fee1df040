package train

import (
	"fmt"
	"sync"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/parallel"
)

// richNet exercises every recycle-sensitive path at once: batch norm and
// dropout (persistent aux reuse), max pooling (argmax nibbles), and a
// residual Add whose two-consumer ReLU forces gradient merging (the
// merged-branch recycle point) and a stash read count above one.
func richNet(mb int) *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(mb, 2, 8, 8))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), in)
	b1 := g.MustAdd("bn1", layers.NewBatchNorm(), c1)
	r1 := g.MustAdd("relu1", layers.NewReLU(), b1)
	c2 := g.MustAdd("conv2", layers.NewConv2D(8, 3, 1, 1), r1)
	r2 := g.MustAdd("relu2", layers.NewReLU(), c2)
	add := g.MustAdd("add", layers.NewAdd(), r1, r2)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), add)
	fc1 := g.MustAdd("fc1", layers.NewFC(16), p1)
	r3 := g.MustAdd("relu3", layers.NewReLU(), fc1)
	dr := g.MustAdd("drop", layers.NewDropout(0.4), r3)
	fc2 := g.MustAdd("fc2", layers.NewFC(4), dr)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc2)
	return g
}

// stepResult is one step's observable outcome, compared bit-for-bit
// between pooled and unpooled runs.
type stepResult struct {
	loss       float64
	errs       int
	stashBytes int64
}

// runParity trains a fresh executor and returns its per-step results plus
// the executor for parameter comparison.
func runParity(t *testing.T, net func(int) *graph.Graph, mkOpts func(*graph.Graph) Options, pool *bufpool.Pool, steps, mb int) ([]stepResult, *Executor) {
	t.Helper()
	g := net(mb)
	opts := mkOpts(g)
	opts.Pool = pool
	e := NewExecutor(g, opts)
	d := NewDataset(4, 2, 8, 0.3, 34)
	var res []stepResult
	for i := 0; i < steps; i++ {
		x, l := d.Batch(mb)
		loss, errs := e.Step(x, l, 0.05)
		res = append(res, stepResult{loss, errs, e.StashBytes})
	}
	return res, e
}

// TestPooledMatchesUnpooled is the tentpole's correctness property: for
// every network shape and precision scheme, training is byte-identical at
// every corner of {heap, buffer pool} × {1, 4 codec workers} — same loss at
// every step, same error counts, same stashed-byte accounting, and
// bit-identical final parameters. Every corner is compared to one
// reference (heap, serial codec) per network × scheme.
func TestPooledMatchesUnpooled(t *testing.T) {
	const steps, mb = 6, 8
	nets := []struct {
		name string
		net  func(int) *graph.Graph
	}{
		{"smallNet", smallNet},
		{"bnNet", bnNet},
		{"richNet", richNet},
	}
	schemes := []struct {
		name    string
		workers []int
		mk      func(*graph.Graph) Options
	}{
		{"baseline-fp32", []int{1, 4}, func(g *graph.Graph) Options {
			return Options{Seed: 33}
		}},
		{"dpr-fp16", []int{1, 4}, func(g *graph.Graph) Options {
			return Options{Seed: 33, Encodings: encoding.Analyze(g, encoding.Config{DPR: floatenc.FP16})}
		}},
		{"encoded-lossless", []int{1, 2, 4}, func(g *graph.Graph) Options {
			return Options{Seed: 33, Encodings: encoding.Analyze(g, encoding.Lossless()), Integrity: true}
		}},
		{"encoded-lossy", []int{1, 2, 4}, func(g *graph.Graph) Options {
			return Options{Seed: 33, Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))}
		}},
	}
	t.Cleanup(func() { encoding.SetDefaultCodec(encoding.Codec{}) })
	// Small chunks so feature maps really split across workers.
	setWorkers := func(w int) {
		encoding.SetDefaultCodec(encoding.Codec{Pool: parallel.NewPool(w), ChunkElems: 768})
	}
	for _, n := range nets {
		for _, s := range schemes {
			setWorkers(1)
			ref, refExec := runParity(t, n.net, s.mk, nil, steps, mb)
			for _, w := range s.workers {
				t.Run(fmt.Sprintf("%s/%s/w%d", n.name, s.name, w), func(t *testing.T) {
					setWorkers(w)
					pool := bufpool.New()
					for _, p := range []*bufpool.Pool{nil, pool} {
						got, gotExec := runParity(t, n.net, s.mk, p, steps, mb)
						for i := range ref {
							if got[i] != ref[i] {
								t.Fatalf("pooled=%t step %d: %+v, reference %+v", p != nil, i, got[i], ref[i])
							}
						}
						for _, node := range refExec.G.Nodes {
							ps, qs := refExec.params[node.ID], gotExec.params[node.ID]
							for j := range ps {
								if !ps[j].Equal(qs[j]) {
									t.Fatalf("pooled=%t: %s param %d diverged from the reference", p != nil, node.Name, j)
								}
							}
						}
					}
					if st := pool.Stats(); st.Hits == 0 {
						t.Fatal("pooled run never reused a buffer")
					}
				})
			}
		}
	}
}

// TestPooledSteadyStateStopsAllocating pins the arena's whole reason to
// exist: once the first step has recorded the layout, further steps are
// served entirely from the slab — the miss counter stops moving.
func TestPooledSteadyStateStopsAllocating(t *testing.T) {
	const mb = 8
	encoding.SetDefaultCodec(encoding.Codec{ChunkElems: 768})
	t.Cleanup(func() { encoding.SetDefaultCodec(encoding.Codec{}) })
	g := richNet(mb)
	e := NewExecutor(g, Options{
		Seed:      33,
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		Integrity: true,
		Pool:      bufpool.New(),
	})
	d := NewDataset(4, 2, 8, 0.3, 34)
	var missesAfterWarmup int64
	for i := 0; i < 10; i++ {
		x, l := d.Batch(mb)
		e.Step(x, l, 0.05)
		if i == 0 {
			missesAfterWarmup = e.ArenaStats().Misses
		}
	}
	st := e.ArenaStats()
	if st.Misses != missesAfterWarmup {
		t.Fatalf("arena still missing after the recorded step: %d misses at step 1, %d at step 10", missesAfterWarmup, st.Misses)
	}
	if hr := st.HitRate(); hr < 0.5 {
		t.Fatalf("steady-state hit rate %.2f, want > 0.5", hr)
	}
}

// TestPooledFaultInjectionParity extends the byte-identity property to the
// failure paths: with deterministic fault injection active, the pooled
// executor sees the same injected failures, detects the same corruptions,
// and leaves the same parameters as the unpooled one.
func TestPooledFaultInjectionParity(t *testing.T) {
	const steps, mb = 12, 8
	encoding.SetDefaultCodec(encoding.Codec{ChunkElems: 768})
	t.Cleanup(func() { encoding.SetDefaultCodec(encoding.Codec{}) })

	run := func(pool *bufpool.Pool) (results []string, robust RobustnessStats, e *Executor) {
		g := richNet(mb)
		inj := faults.New(faults.Config{
			Seed:           7,
			BitFlipRate:    0.2,
			EncodeFailRate: 0.1,
			DecodeFailRate: 0.1,
		})
		e = NewExecutor(g, Options{
			Seed:      33,
			Encodings: encoding.Analyze(g, encoding.Lossless()),
			Faults:    inj,
			Pool:      pool,
		})
		d := NewDataset(4, 2, 8, 0.3, 34)
		for i := 0; i < steps; i++ {
			inj.BeginStep(i + 1)
			x, l := d.Batch(mb)
			loss, errs, err := e.TryStep(x, l, 0.05)
			results = append(results, fmt.Sprintf("loss=%x errs=%d err=%v", loss, errs, err))
		}
		return results, e.Robust, e
	}

	ref, refRobust, refExec := run(nil)
	got, gotRobust, gotExec := run(bufpool.New())
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("step %d under faults: pooled %s, unpooled %s", i, got[i], ref[i])
		}
	}
	if gotRobust != refRobust {
		t.Fatalf("robustness counters diverged: pooled %+v, unpooled %+v", gotRobust, refRobust)
	}
	for _, n := range refExec.G.Nodes {
		ps, qs := refExec.params[n.ID], gotExec.params[n.ID]
		for j := range ps {
			if !ps[j].Equal(qs[j]) {
				t.Fatalf("%s param %d diverged under fault injection", n.Name, j)
			}
		}
	}
}

// TestConcurrentPooledExecutorsShareOnePool trains several pooled
// executors at once against one buffer pool and the shared worker pool —
// the -race workload for the pool's accounting of their arenas, the
// poisoning, and the async-decode ownership transfer —
// and checks same-seed replicas stay bit-identical, each replaying its own
// slab.
func TestConcurrentPooledExecutorsShareOnePool(t *testing.T) {
	parallel.SetSharedWorkers(4)
	t.Cleanup(func() { parallel.SetSharedWorkers(0) })
	withCodec(t, encoding.Codec{ChunkElems: 768}) // nil Pool → shared workers

	const replicas, steps, mb = 4, 4, 8
	shared := bufpool.New()
	execs := make([]*Executor, replicas)
	var wg sync.WaitGroup
	errs := make(chan error, replicas)
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := richNet(mb)
			a := encoding.Analyze(g, encoding.Lossless())
			e := NewExecutor(g, Options{Seed: 55, Encodings: a, Integrity: true, Pool: shared})
			d := NewDataset(4, 2, 8, 0.3, 56)
			for i := 0; i < steps; i++ {
				x, l := d.Batch(mb)
				if _, _, err := e.TryStep(x, l, 0.05); err != nil {
					errs <- fmt.Errorf("replica %d step %d: %w", r, i, err)
					return
				}
			}
			execs[r] = e
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for r := 1; r < replicas; r++ {
		for _, n := range execs[0].G.Nodes {
			ps, qs := execs[0].params[n.ID], execs[r].params[n.ID]
			for j := range ps {
				if !ps[j].Equal(qs[j]) {
					t.Fatalf("replica %d: %s param %d diverged from replica 0", r, n.Name, j)
				}
			}
		}
	}
	for r, e := range execs {
		if st := e.ArenaStats(); st.Hits == 0 {
			t.Fatalf("replica %d never served a map from its slab: %+v", r, st)
		}
		e.Close()
	}
	if st := shared.Stats(); st.InUseBytes != 0 {
		t.Fatalf("shared pool still accounts %d B in use after every executor closed", st.InUseBytes)
	}
}
