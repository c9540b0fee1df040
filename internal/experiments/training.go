package experiments

// Training experiments: Figure 12 (accuracy under precision reduction) and
// Figure 14 (SSDC compression over training time). Both run real training
// on the CPU executor at reduced scale — the mechanisms under test
// (forward-error compounding vs delayed reduction; sparsity ramping after
// the first few hundred minibatches) are scale-independent.

import (
	"fmt"
	"sort"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/networks"
	"gist/internal/train"
)

// newTrainEngine builds the training engine for a run: a plain executor
// when replicas and shards are unset, otherwise a replica group whose
// micro-shards divide the requested minibatch (so the per-step sample
// count is unchanged), carrying out the analysis of the graph it builds
// under enc. Drive it with its Batch() and Close it after.
func newTrainEngine(build func(mb, classes int) *graph.Graph, mb, classes int,
	opts train.Options, enc encoding.Config, replicas, shards int) train.Engine {
	// The graph's batch is one shard's rows: the minibatch over the shard
	// count the engine will run at (one per replica unless pinned, one for
	// a single executor).
	perStep := shards
	if perStep <= 0 {
		perStep = max(replicas, 1)
	}
	g := build(max(mb/perStep, 1), classes)
	opts.Encodings = encoding.Analyze(g, enc)
	return train.NewEngine(g, opts, train.ReplicaConfig{Replicas: replicas, Shards: shards})
}

// TrainScale sizes the Figure 12 runs.
type TrainScale struct {
	Classes   int
	Minibatch int
	Steps     int
	LR        float32
	NoiseStd  float64
	Seeds     []uint64
	// ErrorDepth is the conv depth of the forward-error study network.
	ErrorDepth int
	Seed       uint64 // base seed (kept for the CLI's -seed flag)
	// Replicas/Shards, when set, run the accuracy study on the replica
	// engine: Minibatch is divided into Shards micro-shards spread over
	// Replicas concurrent executors.
	Replicas, Shards int
	// StashBudget, when set, caps the in-RAM stash bytes, spilling the
	// excess to encoded pages under SpillDir (results are bit-identical at
	// every budget).
	StashBudget int64
	SpillDir    string
}

// DefaultTrainScale trains in well under a minute on one core.
func DefaultTrainScale() TrainScale {
	return TrainScale{
		Classes: 4, Minibatch: 8, Steps: 200, LR: 0.05, NoiseStd: 0.4,
		Seeds: []uint64{42, 43}, ErrorDepth: 12, Seed: 42,
	}
}

// fig12Configs lists the precision configurations Figure 12 compares: the
// All-* rows quantize the forward pass, the Gist-* rows DPR-pack only the
// stashes (an analysis, untouched by the -technique knob).
func fig12Configs() []struct {
	name    string
	forward floatenc.Format
	dpr     floatenc.Format
} {
	return []struct {
		name    string
		forward floatenc.Format
		dpr     floatenc.Format
	}{
		{"Baseline-FP32", floatenc.FP32, floatenc.FP32},
		{"All-FP16", floatenc.FP16, floatenc.FP32},
		{"All-FP8", floatenc.FP8, floatenc.FP32},
		{"Gist-FP16", floatenc.FP32, floatenc.FP16},
		{"Gist-FP10", floatenc.FP32, floatenc.FP10},
		{"Gist-FP8", floatenc.FP32, floatenc.FP8},
	}
}

// Fig12 reproduces the accuracy study in two parts. Part A trains each
// precision configuration (seed-averaged) and reports the final training
// accuracy loss: Gist-DPR must track the FP32 baseline, which is the
// paper's central accuracy claim. Part B isolates the mechanism behind the
// All-* failures the paper observed at ImageNet scale: the relative
// forward-pass error that immediate reduction injects compounds layer by
// layer, while delayed reduction keeps the forward pass bit-exact. (At
// this reproduction's 6-conv scale the compounded error does not yet
// overwhelm training, so part B carries the divergence evidence.)
func Fig12(s TrainScale) *Result {
	r := &Result{ID: "fig12", Title: "Training accuracy under precision reduction (scaled run)"}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{s.Seed}
	}
	r.add("A. Final training accuracy loss (avg over %d seeds)", len(s.Seeds))
	r.add("%-22s %14s %10s", "configuration", "accuracy loss", "trains?")
	for _, c := range fig12Configs() {
		var sum float64
		diverged := false
		for _, seed := range s.Seeds {
			opts := train.Options{Seed: seed, Pool: bufpool.Shared(), ForwardFormat: c.forward,
				StashBudget: s.StashBudget, SpillDir: s.SpillDir}
			en := newTrainEngine(networks.TinyCNN, s.Minibatch, s.Classes, opts,
				encoding.Config{DPR: c.dpr}, s.Replicas, s.Shards)
			d := train.NewDataset(s.Classes, 3, 16, s.NoiseStd, seed+1)
			recs := train.Run(en, d, train.RunConfig{
				Minibatch: en.Batch(), Steps: s.Steps, LR: s.LR,
				ProbeEvery: s.Steps / 10,
			})
			en.Close()
			sum += train.FinalAccuracyLoss(recs)
			diverged = diverged || train.Diverged(recs, s.Classes)
		}
		accLoss := sum / float64(len(s.Seeds))
		r.set(c.name+"/accuracy-loss", accLoss)
		trains := "yes"
		if diverged {
			trains = "NO"
		}
		r.add("%-22s %13.1f%% %10s", c.name, 100*accLoss, trains)
	}

	r.add("")
	r.add("B. Forward-pass relative error vs FP32 by depth (the compounding mechanism)")
	r.add("%-12s %10s %10s %10s %10s", "depth", "All-FP16", "All-FP10", "All-FP8", "Gist-DPR*")
	errs := ForwardErrorByDepth(s.ErrorDepth, s.Seed)
	for _, row := range errs {
		r.add("conv %-7d %9.4f%% %9.4f%% %9.4f%% %9.4f%%",
			row.Depth, 100*row.AllFP16, 100*row.AllFP10, 100*row.AllFP8, 0.0)
		r.set(fmt.Sprintf("fwderr/fp16/depth%d", row.Depth), row.AllFP16)
		r.set(fmt.Sprintf("fwderr/fp10/depth%d", row.Depth), row.AllFP10)
		r.set(fmt.Sprintf("fwderr/fp8/depth%d", row.Depth), row.AllFP8)
	}
	r.add("(* Gist-DPR's forward pass is bit-identical to FP32 at every depth.)")
	r.add("(paper: All-FP16 loses accuracy badly at 100+-layer scale; Gist-DPR tracks")
	r.add(" FP32 down to FP8 for AlexNet/Overfeat, FP10 for Inception, FP16 for VGG16)")
	return r
}

// DepthError is one row of the Figure 12 forward-error study.
type DepthError struct {
	Depth                    int
	AllFP16, AllFP10, AllFP8 float64
}

// deepStack is a thin conv-ReLU tower with its activation names recorded,
// the instrument for measuring error growth with depth.
type deepStack struct {
	g         *graph.Graph
	reluNames []string
}

func newDeepStack(mb, classes, depth int) *deepStack {
	s := &deepStack{g: graph.New()}
	n := s.g.MustAdd("input", layers.NewInput(mb, 3, 16, 16))
	for i := 0; i < depth; i++ {
		n = s.g.MustAdd(fmt.Sprintf("conv%d", i), layers.NewConv2D(4, 3, 1, 1), n)
		n = s.g.MustAdd(fmt.Sprintf("relu%d", i), layers.NewReLU(), n)
		s.reluNames = append(s.reluNames, fmt.Sprintf("relu%d", i))
	}
	fc := s.g.MustAdd("fc", layers.NewFC(classes), n)
	s.g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return s
}

// ForwardErrorByDepth builds a deep thin conv stack, runs one forward pass
// per precision configuration on identical weights and data, and measures
// the mean relative error of each activation against FP32. Gist-DPR is not
// listed because its forward pass is the FP32 forward pass.
func ForwardErrorByDepth(depth int, seed uint64) []DepthError {
	d := train.NewDataset(4, 3, 16, 0.4, seed+1)
	x, labels := d.Batch(4)

	ref := newDeepStack(4, 4, depth)
	refExec := train.NewExecutor(ref.g, train.Options{Seed: seed})
	refExec.Forward(x, labels, false)

	formats := []floatenc.Format{floatenc.FP16, floatenc.FP10, floatenc.FP8}
	execs := make([]*train.Executor, len(formats))
	stacks := make([]*deepStack, len(formats))
	for i, f := range formats {
		stacks[i] = newDeepStack(4, 4, depth)
		execs[i] = train.NewExecutor(stacks[i].g, train.Options{
			Seed: seed, ForwardFormat: f,
		})
		execs[i].Forward(x, labels, false)
	}

	var rows []DepthError
	for di, name := range ref.reluNames {
		row := DepthError{Depth: di + 1}
		a := refExec.Output(ref.g.Lookup(name))
		for i := range formats {
			b := execs[i].Output(stacks[i].g.Lookup(name))
			var num, den float64
			for k := range a.Data {
				num += absf(float64(b.Data[k] - a.Data[k]))
				den += absf(float64(a.Data[k]))
			}
			var rel float64
			if den > 0 {
				rel = num / den
			}
			switch formats[i] {
			case floatenc.FP16:
				row.AllFP16 = rel
			case floatenc.FP10:
				row.AllFP10 = rel
			case floatenc.FP8:
				row.AllFP8 = rel
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SparsityScale sizes the Figure 14 run.
type SparsityScale struct {
	Classes    int
	Minibatch  int
	Steps      int
	ProbeEvery int
	LR         float32
	Seed       uint64
	// Replicas/Shards, when set, run the study on the replica engine.
	Replicas, Shards int
	// StashBudget/SpillDir, when set, spill stashes as in TrainScale.
	StashBudget int64
	SpillDir    string
}

// DefaultSparsityScale probes a TinyVGG run every few steps.
func DefaultSparsityScale() SparsityScale {
	return SparsityScale{
		Classes: 4, Minibatch: 8, Steps: 60, ProbeEvery: 10, LR: 0.01, Seed: 7,
	}
}

// Fig14 reproduces the SSDC sensitivity study: per-ReLU-layer narrow-CSR
// compression ratios over training time on a VGG-shaped network. The paper
// observes ratios start modest (random weights give ~50% sparsity) and grow
// as training sharpens the features.
func Fig14(s SparsityScale) *Result {
	r := &Result{ID: "fig14", Title: "SSDC compression ratio per ReLU layer over training (TinyVGG)"}
	en := newTrainEngine(networks.TinyVGG, s.Minibatch, s.Classes,
		train.Options{Seed: s.Seed, Pool: bufpool.Shared(), StashBudget: s.StashBudget, SpillDir: s.SpillDir},
		encoding.Config{}, s.Replicas, s.Shards)
	d := train.NewDataset(s.Classes, 3, 32, 0.3, s.Seed+1)
	recs := train.Run(en, d, train.RunConfig{
		Minibatch: en.Batch(), Steps: s.Steps, LR: s.LR,
		ProbeEvery: s.ProbeEvery, ProbeSparsity: true,
	})
	en.Close()
	if len(recs) == 0 {
		r.add("(no probes)")
		return r
	}
	// Stable layer order.
	var layerNames []string
	for name := range recs[0].ReLUSparsity {
		layerNames = append(layerNames, name)
	}
	sort.Strings(layerNames)

	header := fmt.Sprintf("%-10s", "minibatch")
	for _, name := range layerNames {
		header += fmt.Sprintf(" %8s", name)
	}
	r.add("%s", header)
	for _, rec := range recs {
		line := fmt.Sprintf("%-10d", rec.Minibatch)
		for _, name := range layerNames {
			ratio := csrRatio(rec.ReLUSparsity[name])
			line += fmt.Sprintf(" %7.2fx", ratio)
			r.set(fmt.Sprintf("%s/mb%d", name, rec.Minibatch), ratio)
		}
		r.add("%s", line)
	}
	r.add("(paper: MFR > 1 for nearly all layers after the first ~200 minibatches,")
	r.add(" varying across layers and over time)")
	return r
}

// csrRatio converts a measured sparsity into the narrow-CSR compression
// ratio of a large buffer at that sparsity.
func csrRatio(sparsity float64) float64 {
	const n = 1 << 20
	return float64(int64(n)*4) / float64(encoding.CSRBytesModel(n, sparsity))
}
