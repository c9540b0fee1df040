package main

import (
	"fmt"

	"gist"
	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/server"
	"gist/internal/tensor"
)

// Sizes shared by every train workload. An epoch is one fixed, seeded unit
// of work — build the graph, construct the trainer, warm up, run the timed
// steps, close — identical on every commit, so losses, hashes and byte
// counts compare across commits. A run repeats whole epochs until its
// --seconds are spent: the length of a run varies, what is measured does
// not.
const (
	warmupSteps = 5
	// memorySteps is the length of the memory pass; the Step-driven weights
	// hash is sampled after the same number of steps to prove the
	// phase-driven loop is a faithful driver.
	memorySteps = 10
	classes     = 8
	noiseStd    = 0.4
)

// trainSpec describes one of the four training workloads.
type trainSpec struct {
	name, why string
	graph     func() *graph.Graph
	channels  int // dataset geometry matching the graph's input
	size      int
	lr        float32
	steps     int // timed steps per epoch
	// The stash path under test.
	encoded   bool // LossyLossless(FP16), the paper's VGG16 configuration
	adaptive  bool // + adaptive set over every registered technique
	integrity bool
	workers   int // private codec worker pool (0 = inline codec)
	spill     bool
}

// stashNet is the workload graph built so the stash path is visible: wide
// feature maps over cheap 1x1 convolutions, so encode, seal and decode are
// about half of a step instead of the ~1% they are next to a 3x3 conv.
func stashNet() *graph.Graph {
	g := graph.New()
	last := g.MustAdd("input", layers.NewInput(4, 4, 64, 64))
	seq := 0
	add := func(prefix string, op layers.Op) {
		seq++
		last = g.MustAdd(fmt.Sprintf("%s%d", prefix, seq), op, last)
	}
	convReLU := func() {
		add("conv", layers.NewConv2D(8, 1, 1, 0))
		add("relu", layers.NewReLU())
	}
	convReLU()
	convReLU()
	add("pool", layers.NewMaxPool(2, 2, 0))
	convReLU()
	add("pool", layers.NewMaxPool(2, 2, 0))
	convReLU()
	add("pool", layers.NewMaxPool(4, 4, 0))
	add("fc", layers.NewFC(32))
	add("relu", layers.NewReLU())
	add("fc", layers.NewFC(classes))
	g.MustAdd("loss", layers.NewSoftmaxXent(), last)
	return g
}

func tinyVGG() *graph.Graph { return gist.TinyVGG(2, classes) }

// stashLR is StashNet's learning rate, picked once: of 0.002 to 0.03 it is
// the one on which the most seeds learn (README.md has the count).
const stashLR = 0.005

var trainSpecs = []trainSpec{
	{
		name:  "vgg_dense",
		why:   "plain single-worker TinyVGG baseline: layers do nearly all the work and codec, store and worker pool are bypassed, so a change to those must not move it",
		graph: tinyVGG, channels: 3, size: 32, lr: 0.01, steps: 200,
	},
	{
		name:  "vgg_gist",
		why:   "same graph, seed and data with the paper's VGG16 encodings: the gap to vgg_dense is Gist's measured overhead (Fig 9) and memory effect (Fig 8) on a compute-bound net",
		graph: tinyVGG, channels: 3, size: 32, lr: 0.01, steps: 200,
		encoded: true,
	},
	{
		name:  "stash_ram",
		why:   "wide maps over 1x1 convs with every technique, integrity and 2 codec workers: encode/seal/decode are about half the step, so encoding, bufpool and parallel show end to end",
		graph: stashNet, channels: 4, size: 64, lr: stashLR, steps: 200,
		encoded: true, adaptive: true, integrity: true, workers: 2,
	},
	{
		name:  "stash_spill",
		why:   "stash_ram under a stash budget of a quarter of its hot peak: the store writes and reads spill pages, so a store-only change moves this workload and no other",
		graph: stashNet, channels: 4, size: 64, lr: stashLR, steps: 200,
		encoded: true, adaptive: true, integrity: true, workers: 2, spill: true,
	},
}

const serveName = "serve_mix"

const serveWhy = "the operator's view: 2 closed-loop clients drain a seeded tenant/encoding mix of tinycnn jobs over HTTP+SSE, then scrape /metrics; admission, scheduling, checkpoints and promexport matter most"

func workloadNames() []string {
	names := make([]string, 0, len(trainSpecs)+1)
	for _, s := range trainSpecs {
		names = append(names, s.name)
	}
	return append(names, serveName)
}

func findTrainSpec(name string) *trainSpec {
	for i := range trainSpecs {
		if trainSpecs[i].name == name {
			return &trainSpecs[i]
		}
	}
	return nil
}

// config is the encoding configuration the workload trains under, built the
// way gist.NewTrainer builds it from the same options; ok is false for the
// dense baseline.
func (s *trainSpec) config() (cfg encoding.Config, ok bool) {
	if !s.encoded {
		return encoding.Config{}, false
	}
	cfg = gist.LossyLossless(gist.FP16)
	if s.adaptive {
		cfg.AdaptiveSet = encoding.AdaptiveAll()
	}
	return cfg, true
}

// options returns the trainer options of the workload. budget and spillDir
// apply to the spill workload only.
func (s *trainSpec) options(seed uint64, budget int64, spillDir string) []gist.TrainerOption {
	opts := []gist.TrainerOption{gist.WithSeed(seed), gist.WithPooling(gist.NewBufferPool())}
	if s.encoded {
		opts = append(opts, gist.WithEncodings(gist.LossyLossless(gist.FP16)))
	}
	if s.adaptive {
		opts = append(opts, gist.WithAdaptiveSet(encoding.AdaptiveAll()...))
	}
	if s.integrity {
		opts = append(opts, gist.WithIntegrity())
	}
	if s.workers > 0 {
		opts = append(opts, gist.WithParallelism(s.workers))
	}
	if budget > 0 {
		opts = append(opts, gist.WithStashBudget(budget), gist.WithSpillDir(spillDir))
	}
	return opts
}

// batch is one pre-generated minibatch. Inputs are made before anything is
// timed, so the program under test sees only generated inputs and the
// dataset's own allocations never count against a step.
type batch struct {
	x      *tensor.Tensor
	labels []int
}

func (s *trainSpec) batches(seed uint64, n int) []batch {
	d := gist.NewDataset(classes, s.channels, s.size, noiseStd, seed+1)
	mb := s.graph().InputNodes()[0].OutShape[0]
	out := make([]batch, n)
	for i := range out {
		out[i].x, out[i].labels = d.Batch(mb)
	}
	return out
}

// Serve workload sizes: one epoch is a fresh server draining serveJobs jobs
// of serveJobSteps steps each, then serveScrapes sequential scrapes with
// every job's sink still registered.
const (
	serveJobs     = 36
	serveJobSteps = 40
	serveScrapes  = 75
	serveClients  = 2
	serveTenants  = 3
)

// jobKind is one entry of the serve traffic mix.
type jobKind struct {
	share float64
	apply func(*server.JobSpec)
}

// The mix: 40% plain (half may degrade under pressure), 30% fp16, 15%
// adaptive, 10% spilling, 5% two-shard replica groups.
var jobKinds = []jobKind{
	{0.20, func(s *server.JobSpec) { s.Encoding = "none" }},
	{0.20, func(s *server.JobSpec) { s.Encoding = "none"; s.AllowDegrade = true }},
	{0.30, func(s *server.JobSpec) { s.Encoding = "fp16" }},
	{0.15, func(s *server.JobSpec) { s.Encoding = "none"; s.Technique = "adaptive" }},
	{0.10, func(s *server.JobSpec) { s.Encoding = "none"; s.StashBudget = 4096 }},
	{0.05, func(s *server.JobSpec) { s.Encoding = "none"; s.Shards = 2; s.Batch = 4 }},
}

// opening is the kinds of the first three jobs of every list. The two
// clients open with one unencoded job each, so the second must queue; the
// client that finishes first then submits one that may degrade while the
// other's job has only just started, so it does. The budget checks of the
// run (at least one queued, at least one degraded) then hold by
// construction, not by luck of the shuffle.
var opening = []int{0, 0, 1}

// jobMix returns the seeded job list: a pure function of (seed, n, steps),
// n at least 8. Every kind appears at least once; the rest are dealt by
// share and the deck is shuffled behind the fixed opening, then tenants and
// job seeds are drawn.
func jobMix(seed uint64, n, steps int) []server.JobSpec {
	rng := tensor.NewRNG(seed ^ 0x6a6f626d6978) // "jobmix"
	counts := make([]int, len(jobKinds))
	dealt := 0
	for i := range counts {
		counts[i] = 1
		dealt++
	}
	counts[0]++ // the opening needs two of kind 0
	for dealt++; dealt < n; dealt++ {
		// Give the next job to the kind furthest below its share.
		best, gap := 0, -1.0
		for i, k := range jobKinds {
			if g := k.share*float64(n) - float64(counts[i]); g > gap {
				best, gap = i, g
			}
		}
		counts[best]++
	}
	var deck []int
	for i, c := range counts {
		for ; c > 0; c-- {
			deck = append(deck, i)
		}
	}
	for i := len(deck) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		deck[i], deck[j] = deck[j], deck[i]
	}
	for i, kind := range opening {
		for j := i; j < len(deck); j++ {
			if deck[j] == kind {
				deck[i], deck[j] = deck[j], deck[i]
				break
			}
		}
	}
	specs := make([]server.JobSpec, len(deck))
	for i, k := range deck {
		spec := server.JobSpec{
			Name:    fmt.Sprintf("bench-%03d", i),
			Tenant:  fmt.Sprintf("tenant-%d", rng.Intn(serveTenants)),
			Network: "tinycnn",
			Steps:   steps,
			Seed:    1 + rng.Uint64()%1_000_000,
		}
		jobKinds[k].apply(&spec)
		specs[i] = spec
	}
	return specs
}
