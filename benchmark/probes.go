package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"time"

	"gist"
	"gist/internal/bufpool"
	"gist/internal/core"
	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/parallel"
	"gist/internal/reduce"
	"gist/internal/stashstore"
	"gist/internal/telemetry"
	"gist/internal/telemetry/promexport"
	"gist/internal/tensor"
	"gist/internal/train"
)

// Probes measure one layer from outside by replaying a step's real tensors
// through the layer's exported API. Each call is timed probeRepeats times
// and the best is kept: a probe estimates what the code costs, not what the
// box adds.
const (
	probeRepeats = 5
	// captureSteps is how long the capture executor trains before its
	// tensors are taken, so activations carry a net's sparsity some way into
	// training.
	captureSteps = 20
)

// fastestOf returns the fastest of n timings of fn, in milliseconds.
func fastestOf(n int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn()
		best = min(best, time.Since(t))
	}
	return ms(best.Nanoseconds())
}

// bestOf is fastestOf at the probes' repeat count.
func bestOf(fn func()) float64 { return fastestOf(probeRepeats, fn) }

// capture trains an unpooled executor (the only kind that keeps every
// node's output) for captureSteps steps under the workload's encodings and
// returns it with its analysis.
func (r *trainRun) capture() (*graph.Graph, *train.Executor, *encoding.Analysis, []int) {
	g := r.spec.graph()
	var analysis *encoding.Analysis
	if cfg, ok := r.spec.config(); ok {
		analysis = encoding.Analyze(g, cfg)
	}
	exec := train.NewExecutor(g, train.Options{Seed: r.seed, Encodings: analysis, Integrity: r.spec.integrity})
	var labels []int
	for i := 0; i < min(captureSteps, len(r.batches)); i++ {
		b := r.batches[i]
		exec.Step(b.x, b.labels, r.spec.lr)
		labels = b.labels
	}
	return g, exec, analysis, labels
}

// layerRounds is how many times probeLayers replays the whole step. Rounds
// are the outer loop, so one node's samples are spread over the whole probe
// and a slow moment on the box cannot claim all of them.
const layerRounds = 10

// probeLayers replays one step node by node on the captured tensors — every
// Forward on the step's real inputs, then a real backward pass in reverse
// order so every Backward sees the gradient its consumer produced (ReLU
// gradients are sparse, and the kernels know it) — and sums each node's best
// time by operator kind.
func probeLayers(g *graph.Graph, exec *train.Executor, labels []int, out map[string]float64) {
	rng := tensor.NewRNG(7)
	nn := len(g.Nodes)
	auxOf, outOf := make([]map[string]any, nn), make([]*tensor.Tensor, nn)
	fwdBest, bwdBest := make([]time.Duration, nn), make([]time.Duration, nn)
	for _, n := range g.Nodes {
		auxOf[n.ID] = map[string]any{layers.AuxKeyLabels: labels}
		outOf[n.ID] = tensor.New(n.OutShape...)
		fwdBest[n.ID], bwdBest[n.ID] = 1<<63-1, 1<<63-1
	}
	inputs := func(n *graph.Node) (ins []*tensor.Tensor, shapes []tensor.Shape) {
		for _, in := range n.Inputs {
			ins, shapes = append(ins, exec.Output(in)), append(shapes, in.OutShape)
		}
		return ins, shapes
	}
	for round := 0; round < layerRounds; round++ {
		for _, n := range g.Nodes {
			if n.Kind() == layers.Input {
				continue
			}
			ins, _ := inputs(n)
			ctx := layers.FwdCtx{In: ins, Params: exec.Params(n), Out: outOf[n.ID], Aux: auxOf[n.ID], RNG: rng, Train: true}
			t := time.Now()
			n.Op.Forward(&ctx)
			fwdBest[n.ID] = min(fwdBest[n.ID], time.Since(t))
		}
		gradOf := make([]*tensor.Tensor, nn)
		for i := nn - 1; i >= 0; i-- {
			n := g.Nodes[i]
			if n.Kind() == layers.Input {
				continue
			}
			dOut := gradOf[n.ID]
			if dOut == nil {
				if len(n.Consumers()) > 0 {
					continue // no gradient flowed here
				}
				dOut = tensor.New(n.OutShape...) // the loss node seeds its own
			}
			ins, _ := inputs(n)
			dIns := make([]*tensor.Tensor, len(n.Inputs))
			for j, in := range n.Inputs {
				dIns[j] = tensor.New(in.OutShape...)
			}
			params := exec.Params(n)
			dParams := make([]*tensor.Tensor, len(params))
			for j, p := range params {
				dParams[j] = tensor.New(p.Shape...)
			}
			ctx := layers.BwdCtx{In: ins, Params: params, Out: outOf[n.ID], DOut: dOut, DIn: dIns, DParams: dParams, Aux: auxOf[n.ID]}
			t := time.Now()
			n.Op.Backward(&ctx)
			bwdBest[n.ID] = min(bwdBest[n.ID], time.Since(t))
			for j, in := range n.Inputs {
				if gradOf[in.ID] == nil {
					gradOf[in.ID] = dIns[j]
				} else {
					gradOf[in.ID].Add(dIns[j])
				}
			}
		}
	}
	var convMACs float64
	for _, n := range g.Nodes {
		fwd, bwd := ms(fwdBest[n.ID].Nanoseconds()), ms(bwdBest[n.ID].Nanoseconds())
		switch n.Kind() {
		case layers.Conv:
			out["layers.conv_fwd_ms"] += fwd
			out["layers.conv_bwd_ms"] += bwd
			_, shapes := inputs(n)
			convMACs += float64(n.Op.FLOPs(shapes)) / 2
		case layers.FC:
			out["layers.fc_ms"] += fwd + bwd
		case layers.ReLU, layers.MaxPool:
			out["layers.relu_pool_ms"] += fwd + bwd
		}
	}
	out["layers.conv_fwd_mmac_per_s"] = ratio(convMACs/1e6, out["layers.conv_fwd_ms"]/1e3)
}

// probeCodec replays every stashed node through the codec with the run's
// analysis — encode, seal + verify, decode, and for the spill workload the
// wire format — and returns the encoded stashes in node order for the store
// probe.
func (r *trainRun) probeCodec(g *graph.Graph, exec *train.Executor, analysis *encoding.Analysis, out map[string]float64) (ids []int, stashes []*encoding.EncodedStash) {
	if analysis == nil {
		return nil, nil
	}
	var cdc encoding.Codec
	if r.spec.workers > 0 {
		cdc.Pool = parallel.NewPool(r.spec.workers)
	}
	var raw, held, fellBack float64
	for _, n := range g.Nodes {
		as := analysis.ByNode[n.ID]
		if as == nil {
			continue
		}
		t := exec.Output(n)
		enc := &encoding.EncodedStash{}
		var fell bool
		out["encoding.encode_ms"] += bestOf(func() {
			var err error
			if fell, err = cdc.EncodeStashAdaptiveInto(enc, as, t); err != nil {
				panic(err)
			}
		})
		if fell {
			fellBack++
		}
		if r.spec.integrity {
			out["encoding.seal_verify_ms"] += bestOf(func() { cdc.Seal(enc) })
			out["encoding.seal_verify_ms"] += bestOf(func() {
				if err := cdc.Verify(enc); err != nil {
					panic(err)
				}
			})
		}
		if as.NeedsDecode {
			dst := tensor.New(enc.Shape...)
			out["encoding.decode_ms"] += bestOf(func() {
				if err := cdc.DecodeInto(dst, enc); err != nil {
					panic(err)
				}
			})
		}
		if r.spec.spill {
			var wire []byte
			out["encoding.marshal_ms"] += bestOf(func() {
				var err error
				if wire, err = enc.MarshalBinary(); err != nil {
					panic(err)
				}
			})
			out["encoding.unmarshal_ms"] += bestOf(func() {
				if _, err := encoding.UnmarshalStash(wire); err != nil {
					panic(err)
				}
			})
		}
		raw += float64(t.Bytes())
		held += float64(enc.Bytes())
		ids, stashes = append(ids, n.ID), append(stashes, enc)
	}
	out["encoding.raw_bytes"] = raw
	out["encoding.held_bytes"] = held
	out["encoding.ratio"] = ratio(raw, held)
	out["encoding.fallback_ratio"] = ratio(fellBack, float64(len(stashes)))
	out["encoding.encode_mb_per_s"] = ratio(raw/1e6, out["encoding.encode_ms"]/1e3)
	out["encoding.decode_mb_per_s"] = ratio(raw/1e6, out["encoding.decode_ms"]/1e3)
	return ids, stashes
}

// probeStore replays one step of the tiered store under the run's budget:
// BeginStep, Put every stash in forward order, Fetch in backward order.
func (r *trainRun) probeStore(g *graph.Graph, ids []int, stashes []*encoding.EncodedStash, out map[string]float64) {
	if r.budget <= 0 || len(stashes) == 0 {
		return
	}
	tl := graph.BuildTimeline(g)
	pri := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		pri[n.ID] = graph.FirstBackwardUse(tl, n)
	}
	st := stashstore.New(stashstore.Config{Budget: r.budget, Dir: r.spillDir, Priority: pri})
	defer st.Close()
	var put, fetch time.Duration = 1<<63 - 1, 1<<63 - 1
	for rep := 0; rep < probeRepeats; rep++ {
		st.BeginStep()
		t := time.Now()
		for i, enc := range stashes {
			if err := st.Put(ids[i], enc); err != nil {
				panic(err)
			}
		}
		put = min(put, time.Since(t))
		t = time.Now()
		for i := len(ids) - 1; i >= 0; i-- {
			if _, err := st.Fetch(ids[i]); err != nil {
				panic(err)
			}
		}
		fetch = min(fetch, time.Since(t))
	}
	out["stashstore.put_ms"] = ms(put.Nanoseconds())
	out["stashstore.fetch_ms"] = ms(fetch.Nanoseconds())
}

// probeBufpool times a Get + Recycle pair on a prewarmed pool over the size
// classes the workload's graph uses.
func probeBufpool(g *graph.Graph, out map[string]float64) {
	seen := map[int]bool{}
	var shapes []tensor.Shape
	var sizes []int
	for _, n := range g.Nodes {
		if e := n.OutShape.NumElements(); !seen[e] {
			seen[e] = true
			shapes, sizes = append(shapes, n.OutShape), append(sizes, e)
		}
	}
	p := bufpool.New()
	p.Prewarm(sizes)
	const rounds = 2000
	best := bestOf(func() {
		for i := 0; i < rounds; i++ {
			for _, s := range shapes {
				p.Recycle(p.Get(s...))
			}
		}
	})
	out["bufpool.get_recycle_ns"] = best * 1e6 / float64(rounds*len(shapes))
}

// probePlanner times the Schedule Builder on the workload's graph and
// configuration and returns the footprint admission would reserve for it:
// the plan's total plus weights' gradients and momenta.
func probePlanner(g *graph.Graph, cfg encoding.Config, out map[string]float64) {
	var plan *core.Plan
	out["core.build_ms"] = bestOf(func() { plan = core.MustBuild(core.Request{Graph: g, Encodings: cfg}) })
	out["memplan.predicted_bytes"] = float64(plan.TotalBytes + 2*g.WeightBytes())
}

// probeTrain replays everything a train workload's step touches.
func (r *trainRun) probeTrain(out map[string]float64) {
	g, exec, analysis, labels := r.capture()
	probeLayers(g, exec, labels, out)
	ids, stashes := r.probeCodec(g, exec, analysis, out)
	r.probeStore(g, ids, stashes, out)
	probeBufpool(g, out)
	cfg, _ := r.spec.config()
	probePlanner(g, cfg, out)
}

// tinyCNN is the network every serve job trains.
func tinyCNN() *graph.Graph { return gist.TinyCNN(8, 4) }

// probeServe measures what a serve job costs outside the server: building
// and checkpointing its trainer, planning its admission, and merging the
// gradients of a two-shard group.
func probeServe(workDir string, out map[string]float64) error {
	g := tinyCNN()
	probePlanner(g, encoding.Config{}, out)

	var exec *train.Executor
	out["train.new_trainer_ms"] = bestOf(func() {
		analysis := encoding.Analyze(g, gist.LossyLossless(gist.FP16))
		exec = train.NewExecutor(g, train.Options{Seed: 1, Encodings: analysis, Pool: bufpool.New()})
	})
	dir, err := os.MkdirTemp(workDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var saves []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		if err := exec.SaveCheckpointFile(filepath.Join(dir, "probe.ckpt")); err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(t).Nanoseconds()))
	}
	out["train.checkpoint_save_ms_p10"] = percentile(saves, 0.10)

	elems := int(g.WeightBytes() / 4)
	shards := [][]float32{make([]float32, elems), make([]float32, elems)}
	out["reduce.tree_ms"] = bestOf(func() {
		if err := reduce.Tree(nil, shards, 0.5, 0); err != nil {
			panic(err)
		}
	})
	return nil
}

// probePromexport times the exposition and the strict parser over the given
// job sinks, labeled the way the server labels them.
func probePromexport(sinks map[string]*telemetry.Sink, tenants map[string]string, out map[string]float64) error {
	reg := promexport.NewRegistry()
	for id, sink := range sinks {
		reg.Register(sink, promexport.Label{Key: "job_id", Value: id}, promexport.Label{Key: "tenant", Value: tenants[id]})
	}
	var writes, parses []float64
	var body bytes.Buffer
	for i := 0; i < 30; i++ {
		t := time.Now()
		if err := reg.Write(io.Discard); err != nil {
			return err
		}
		writes = append(writes, ms(time.Since(t).Nanoseconds()))
	}
	if err := reg.Write(&body); err != nil {
		return err
	}
	series := 0
	for i := 0; i < 10; i++ {
		t := time.Now()
		fams, err := promexport.Parse(bytes.NewReader(body.Bytes()))
		if err != nil {
			return err
		}
		parses = append(parses, ms(time.Since(t).Nanoseconds()))
		series = 0
		for _, f := range fams {
			series += len(f.Samples)
		}
	}
	out["promexport.write_ms_p10"] = percentile(writes, 0.10)
	out["promexport.parse_ms_p10"] = percentile(parses, 0.10)
	out["promexport.series"] = float64(series)
	return nil
}
