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
	"gist/internal/sparse"
	"gist/internal/train"
)

// trainingPool, when set, is threaded into the default scales so the
// zero-argument runners behind Lookup train through a buffer pool. The CLIs'
// -pool flag sets it; results are byte-identical either way.
var trainingPool *bufpool.Pool

// SetTrainingPool routes the training-based experiments' per-step tensors
// through the given pool (nil restores allocate-per-step).
func SetTrainingPool(p *bufpool.Pool) { trainingPool = p }

// trainingReplicas/trainingShards, when set, run the training-based
// experiments on the data-parallel replica engine. The CLIs' -replicas and
// -shards flags set them; at a fixed shard count results are byte-identical
// at every replica count.
var trainingReplicas, trainingShards int

// SetTrainingReplicas sizes the replica groups the zero-argument training
// runners build (0/0 restores the single-executor path).
func SetTrainingReplicas(replicas, shards int) {
	trainingReplicas, trainingShards = replicas, shards
}

// trainingTechnique, when set, narrows the encoded training experiments'
// stash configurations to one codec technique (or "adaptive" for the
// per-layer minimum-bytes selection). The CLIs' consolidated -technique
// flag sets it; "" restores each experiment's default configuration.
var trainingTechnique string

// SetTrainingTechnique names the technique the encoded training runners
// use; an unknown name is rejected before any experiment runs.
func SetTrainingTechnique(name string) error {
	if _, err := (encoding.Config{}).WithTechniqueName(name); err != nil {
		return err
	}
	trainingTechnique = name
	return nil
}

// trainingStashBudget/trainingSpillDir, when set, run the training-based
// experiments through the tiered stash store: hot stash bytes are capped
// at the budget and the excess spills to encoded pages on disk. The CLIs'
// -stash-budget and -spill-dir flags set them; results are bit-identical
// at every budget.
var (
	trainingStashBudget int64
	trainingSpillDir    string
)

// SetTrainingStash caps the training-based experiments' in-RAM stash
// bytes, spilling the excess under dir (0 restores all-in-RAM).
func SetTrainingStash(budget int64, dir string) {
	trainingStashBudget, trainingSpillDir = budget, dir
}

// trainingConfig applies the technique knob to a base configuration.
func trainingConfig(cfg encoding.Config) encoding.Config {
	cfg, _ = cfg.WithTechniqueName(trainingTechnique) // validated by SetTrainingTechnique
	return cfg
}

// newTrainEngine builds the training engine for a run: a plain executor
// when replicas and shards are unset, otherwise a replica group whose
// micro-shards divide the requested minibatch (so the per-step sample
// count is unchanged). Drive it with its Batch() and Close it after.
func newTrainEngine(build func(mb, classes int) *graph.Graph, mb, classes int,
	opts train.Options, replicas, shards int) train.Engine {
	if trainingStashBudget > 0 && opts.StashBudget == 0 {
		opts.StashBudget = trainingStashBudget
		opts.SpillDir = trainingSpillDir
	}
	// The graph's batch is one shard's rows: the minibatch over the shard
	// count the engine will run at (one per replica unless pinned, one for
	// a single executor).
	perStep := shards
	if perStep <= 0 {
		perStep = max(replicas, 1)
	}
	return train.NewEngine(build(max(mb/perStep, 1), classes), opts,
		train.ReplicaConfig{Replicas: replicas, Shards: shards})
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
	// Pool, when non-nil, serves every per-step tensor of the training runs
	// from its free lists instead of fresh allocations.
	Pool *bufpool.Pool
	// Replicas/Shards, when set, run the accuracy study on the replica
	// engine: Minibatch is divided into Shards micro-shards spread over
	// Replicas concurrent executors.
	Replicas, Shards int
}

// DefaultTrainScale trains in well under a minute on one core.
func DefaultTrainScale() TrainScale {
	return TrainScale{
		Classes: 4, Minibatch: 8, Steps: 200, LR: 0.05, NoiseStd: 0.4,
		Seeds: []uint64{42, 43}, ErrorDepth: 12, Seed: 42,
		Pool: trainingPool, Replicas: trainingReplicas, Shards: trainingShards,
	}
}

// fig12Configs lists the precision configurations Figure 12 compares.
func fig12Configs() []struct {
	name   string
	mode   train.PrecisionMode
	format floatenc.Format
} {
	return []struct {
		name   string
		mode   train.PrecisionMode
		format floatenc.Format
	}{
		{"Baseline-FP32", train.FullPrecision, floatenc.FP32},
		{"All-FP16", train.AllReduced, floatenc.FP16},
		{"All-FP8", train.AllReduced, floatenc.FP8},
		{"Gist-FP16", train.DelayedReduced, floatenc.FP16},
		{"Gist-FP10", train.DelayedReduced, floatenc.FP10},
		{"Gist-FP8", train.DelayedReduced, floatenc.FP8},
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
			opts := train.Options{Seed: seed, Pool: s.Pool}
			if c.mode != train.FullPrecision {
				opts.Mode = c.mode
				opts.Format = c.format
			}
			en := newTrainEngine(networks.TinyCNN,
				s.Minibatch, s.Classes, opts, s.Replicas, s.Shards)
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
			Seed: seed, Mode: train.AllReduced, Format: f,
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
	// Pool, when non-nil, pools the run's per-step tensors.
	Pool *bufpool.Pool
	// Replicas/Shards, when set, run the study on the replica engine.
	Replicas, Shards int
}

// DefaultSparsityScale probes a TinyVGG run every few steps.
func DefaultSparsityScale() SparsityScale {
	return SparsityScale{
		Classes: 4, Minibatch: 8, Steps: 60, ProbeEvery: 10, LR: 0.01, Seed: 7,
		Pool: trainingPool, Replicas: trainingReplicas, Shards: trainingShards,
	}
}

// Fig14 reproduces the SSDC sensitivity study: per-ReLU-layer narrow-CSR
// compression ratios over training time on a VGG-shaped network. The paper
// observes ratios start modest (random weights give ~50% sparsity) and grow
// as training sharpens the features.
func Fig14(s SparsityScale) *Result {
	r := &Result{ID: "fig14", Title: "SSDC compression ratio per ReLU layer over training (TinyVGG)"}
	en := newTrainEngine(networks.TinyVGG, s.Minibatch, s.Classes,
		train.Options{Seed: s.Seed, Pool: s.Pool}, s.Replicas, s.Shards)
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
	return float64(int64(n)*4) / float64(sparse.CSRBytesModel(n, sparsity))
}
