package gist

// The training facade: gist.Trainer wraps the internal executor behind a
// functional-options constructor, so the paper's runtime machinery —
// encoded stashes, chunk-parallel codecs with async backward decode,
// telemetry, fault injection, and liveness-driven buffer pooling — is
// switched on by composing options instead of reaching into internal
// packages:
//
//	tr := gist.NewTrainer(gist.TinyCNN(8, 4),
//		gist.WithEncodings(gist.LossyLossless(gist.FP16)),
//		gist.WithParallelism(4),
//		gist.WithPooling(),
//	)
//	loss, errs, err := tr.Step(x, labels, 0.05)

import (
	"context"
	"sync"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/graph"
	"gist/internal/liveness"
	"gist/internal/memplan"
	"gist/internal/parallel"
	"gist/internal/stashstore"
	"gist/internal/telemetry"
	"gist/internal/tensor"
	"gist/internal/train"
)

// Training types.
type (
	// Tensor is a dense FP32 tensor in NCHW layout.
	Tensor = tensor.Tensor
	// Dataset is a deterministic synthetic classification dataset.
	Dataset = train.Dataset
	// RunConfig configures a training run (steps, minibatch, LR, probes).
	RunConfig = train.RunConfig
	// Record is one training probe (loss, accuracy, ReLU sparsities).
	Record = train.Record
	// Telemetry is a runtime telemetry sink: counters, span tracing,
	// memory timeline, Chrome trace export.
	Telemetry = telemetry.Sink
	// FaultConfig configures deterministic fault injection on the stash
	// encode→hold→decode path.
	FaultConfig = faults.Config
	// BufferPool is the size-class, lifetime-aware buffer pool the pooled
	// runtime recycles activations, gradients and decode targets through.
	BufferPool = bufpool.Pool
	// PoolStats is a snapshot of a BufferPool's hit/miss/held counters.
	PoolStats = bufpool.Stats
)

// NewTensor returns a zeroed tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// NewDataset returns a deterministic synthetic dataset of noisy class
// prototypes: `classes` classes of `size`×`size` images with `channels`
// channels, Gaussian noise of the given standard deviation, seeded.
func NewDataset(classes, channels, size int, noiseStd float64, seed uint64) *Dataset {
	return train.NewDataset(classes, channels, size, noiseStd, seed)
}

// NewTelemetry returns an empty telemetry sink.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewBufferPool returns an empty, private buffer pool.
func NewBufferPool() *BufferPool { return bufpool.New() }

// SharedBufferPool returns the process-wide buffer pool that pooled
// trainers recycle through by default, so concurrent trainers can serve
// each other's freed buffers.
func SharedBufferPool() *BufferPool { return bufpool.Shared() }

// trainerConfig accumulates the functional options.
type trainerConfig struct {
	seed        uint64
	encodings   *Config
	technique   *Technique
	adaptiveSet []Technique
	integrity   bool
	workers     int
	hasWorkers  bool
	tel         *telemetry.Sink
	pool        *bufpool.Pool
	faults      *faults.Injector
	replicas    int
	shards      int
	maxRetries  int
	stashBudget int64
	spillDir    string
}

// TrainerOption configures a Trainer at construction.
type TrainerOption func(*trainerConfig)

// WithSeed sets the seed for weight initialization and dropout. The
// default is 1.
func WithSeed(seed uint64) TrainerOption {
	return func(c *trainerConfig) { c.seed = seed }
}

// WithEncodings round-trips every assigned stash through the real Gist
// encoders (Binarize mask, narrow CSR, packed DPR) during training, per
// the given configuration — e.g. Lossless() or LossyLossless(FP16).
func WithEncodings(cfg Config) TrainerOption {
	return func(c *trainerConfig) { c.encodings = &cfg }
}

// WithTechnique narrows the encoding configuration to one technique: the
// lossless-tier flags are cleared and only the named technique's pass
// runs (DPR keeps the configured format, defaulting to FP16 when the base
// configuration left precision reduction off; None disables encoding
// entirely). It composes with WithEncodings — the base configuration
// supplies the DPR format and sparsity model — and with no WithEncodings
// it starts from a zero configuration. The consolidated -technique CLI
// flags resolve to this option.
func WithTechnique(t Technique) TrainerOption {
	return func(c *trainerConfig) { c.technique = &t }
}

// WithAdaptiveSet has the planner choose per layer among the given
// techniques by minimum predicted encoded bytes, recording the beaten
// candidates as each assignment's runtime fallback chain. It overrides any
// technique selection in the base configuration.
func WithAdaptiveSet(set ...Technique) TrainerOption {
	return func(c *trainerConfig) { c.adaptiveSet = set }
}

// WithIntegrity seals every encoded stash with a CRC32-C checksum and
// verifies it at decode, so silent corruption surfaces as a typed error.
func WithIntegrity() TrainerOption {
	return func(c *trainerConfig) { c.integrity = true }
}

// WithParallelism gives the trainer its own codec worker pool of the given
// size: encode/decode kernels run chunk-parallel, and the decode futures
// the backward pass overlaps with each layer's kernels draw on the same
// budget. The trainer's codec is private — it does not touch the
// process-wide default codec, so concurrently constructed trainers cannot
// race on shared codec state. workers <= 0 draws from the process-shared
// worker pool instead of a private one.
func WithParallelism(workers int) TrainerOption {
	return func(c *trainerConfig) { c.workers, c.hasWorkers = workers, true }
}

// WithTelemetry wires a sink into the trainer: per-step phase spans,
// robustness counters, the stash memory timeline, codec instruments, and —
// under WithPooling — the pool's per-class hit/miss/held gauges.
func WithTelemetry(sink *Telemetry) TrainerOption {
	return func(c *trainerConfig) { c.tel = sink }
}

// WithPooling turns on liveness-driven buffer pooling: every per-step
// tensor is drawn from a buffer pool and recycled at its last use, so
// steady-state training allocates almost nothing. Results are
// byte-identical to the unpooled path. With no argument the process-shared
// pool is used; pass a pool to recycle through a private one. The pool is
// prewarmed from the planner's liveness analysis, so the first step
// already runs at a high hit rate.
func WithPooling(pool ...*BufferPool) TrainerOption {
	return func(c *trainerConfig) {
		if len(pool) > 0 && pool[0] != nil {
			c.pool = pool[0]
			return
		}
		c.pool = bufpool.Shared()
	}
}

// WithReplicas turns the trainer into a data-parallel replica group of n
// executors: every Step consumes a macro-batch of Shards x the graph's
// batch size, splits it into fixed micro-shards, runs them across the
// replicas, and merges the shard gradients with a deterministic tree
// all-reduce, so the trained weights are byte-identical at every replica
// and worker count (at a fixed shard count — see WithShards). n <= 1 keeps
// the single-executor path.
func WithReplicas(n int) TrainerOption {
	return func(c *trainerConfig) { c.replicas = n }
}

// WithShards pins the group's micro-shard count — the unit of gradient
// reduction and the thing that must be held fixed when comparing runs at
// different replica counts. The default (0) uses one shard per replica.
func WithShards(s int) TrainerOption {
	return func(c *trainerConfig) { c.shards = s }
}

// WithShardRetries sets the per-shard retry budget a replica group uses
// against injected stash faults before abandoning the step.
func WithShardRetries(n int) TrainerOption {
	return func(c *trainerConfig) { c.maxRetries = n }
}

// WithStashBudget caps the bytes of stashed feature maps held in RAM
// across the forward→backward gap: the stash store's hot tier is capped,
// the stashes whose backward use is furthest away spill to disk as sealed
// encoded pages, and their fetch-then-decode futures read them back just
// before their backward reader needs them. Placement is a pure function of the
// liveness analysis and the spill round-trip is bit-exact, so trained
// weights are identical to the unlimited-RAM run at any budget. Under
// WithReplicas the budget is split evenly across the replicas' stores.
// bytes <= 0 (the default) keeps every stash in RAM.
func WithStashBudget(bytes int64) TrainerOption {
	return func(c *trainerConfig) { c.stashBudget = bytes }
}

// WithSpillDir sets the directory for the stash store's spill file (the
// default is the OS temp dir). Only meaningful with WithStashBudget.
func WithSpillDir(dir string) TrainerOption {
	return func(c *trainerConfig) { c.spillDir = dir }
}

// WithFaults enables deterministic fault injection (bit flips, encode/
// decode/alloc failures) on the stash pipeline, for testing recovery
// behavior. Integrity sealing is forced on so every injected flip is
// detectable. Steps on a fault-injected trainer report injected failures
// through Step's error.
func WithFaults(cfg FaultConfig) TrainerOption {
	return func(c *trainerConfig) { c.faults = faults.New(cfg) }
}

// Trainer trains one graph. Construct with NewTrainer; drive with Step or
// Run.
type Trainer struct {
	en        train.Engine // a replica group under WithReplicas/WithShards
	codec     *encoding.Codec
	pool      *bufpool.Pool
	closeOnce sync.Once
}

// NewTrainer builds a trainer for the graph with the given options. It
// panics on an invalid graph (like MustBuild); all options compose.
func NewTrainer(g *Graph, options ...TrainerOption) *Trainer {
	if err := g.Validate(); err != nil {
		panic("gist: invalid graph: " + err.Error())
	}
	cfg := trainerConfig{seed: 1}
	for _, opt := range options {
		opt(&cfg)
	}

	var analysis *encoding.Analysis
	if cfg.encodings != nil || cfg.technique != nil || len(cfg.adaptiveSet) > 0 {
		enc := Config{DPR: FP32}
		if cfg.encodings != nil {
			enc = *cfg.encodings
		}
		if cfg.technique != nil {
			enc = enc.WithTechnique(*cfg.technique)
		}
		if len(cfg.adaptiveSet) > 0 {
			enc.AdaptiveSet = cfg.adaptiveSet
		}
		analysis = encoding.Analyze(g, enc)
	}

	t := &Trainer{pool: cfg.pool}
	// A trainer with its own worker budget or sink gets a private codec —
	// the injected-codec path, isolated from the process-wide default.
	if cfg.hasWorkers || cfg.tel != nil {
		codec := encoding.Codec{Tel: cfg.tel}
		if cfg.workers > 0 {
			codec.Pool = parallel.NewPool(cfg.workers)
		}
		t.codec = &codec
	}
	if cfg.pool != nil {
		if cfg.tel != nil {
			cfg.pool.SetTelemetry(cfg.tel)
		}
		// Prewarm from the planner's liveness analysis: the pool starts
		// with one free buffer per size class the step will need.
		tl := graph.BuildTimeline(g)
		bufs := liveness.Analyze(g, tl, liveness.Options{Analysis: analysis})
		warm := memplan.PoolWarmSet(bufs)
		if n := max(cfg.replicas, 1); n > 1 {
			// Each replica holds a full working set concurrently.
			all := make([]int, 0, n*len(warm))
			for i := 0; i < n; i++ {
				all = append(all, warm...)
			}
			warm = all
		}
		cfg.pool.Prewarm(warm)
	}
	opts := train.Options{
		Seed:        cfg.seed,
		Encodings:   analysis,
		Integrity:   cfg.integrity,
		Faults:      cfg.faults,
		Telemetry:   cfg.tel,
		Codec:       t.codec,
		Pool:        cfg.pool,
		StashBudget: cfg.stashBudget,
		SpillDir:    cfg.spillDir,
	}
	t.en = train.NewEngine(g, opts, train.ReplicaConfig{
		Replicas:   cfg.replicas,
		Shards:     cfg.shards,
		MaxRetries: cfg.maxRetries,
	})
	return t
}

// Step runs forward, backward and an SGD update on one minibatch and
// returns the minibatch loss and top-1 error count. The error is non-nil
// only for stash-pipeline failures (injected faults, detected corruption);
// on error no parameter update has been applied.
func (t *Trainer) Step(x *Tensor, labels []int, lr float32) (loss float64, errs int, err error) {
	return t.en.TryStep(x, labels, lr)
}

// Eval runs an inference-mode forward pass and returns the minibatch loss
// and top-1 error count without updating parameters.
func (t *Trainer) Eval(x *Tensor, labels []int) (loss float64, errs int) {
	return t.en.Eval(x, labels)
}

// Run trains on the dataset per the config and returns the probe records.
// cfg.Minibatch must equal Minibatch().
func (t *Trainer) Run(d *Dataset, cfg RunConfig) []Record {
	return train.Run(t.en, d, cfg)
}

// RunContext trains like Run under a context: cancellation or an expired
// deadline stops the run within one step's latency, returning the records
// accumulated so far and an error wrapping ctx.Err(). Job servers drive
// trainers through it so cancelled jobs release their slots promptly.
func (t *Trainer) RunContext(ctx context.Context, d *Dataset, cfg RunConfig) ([]Record, error) {
	return train.RunContext(ctx, t.en, d, cfg)
}

// Minibatch returns the rows one Step consumes: the graph's batch size,
// scaled by the shard count under WithReplicas/WithShards.
func (t *Trainer) Minibatch() int { return t.en.Batch() }

// Close releases the trainer's resources: replica workers shut down and
// every pooled buffer the engine holds is recycled back to its pool.
// Close is idempotent and safe to call from multiple goroutines
// concurrently — pooled buffers are released exactly once, so a double
// Close can never double-recycle (which the pool would reject by panic).
func (t *Trainer) Close() { t.closeOnce.Do(t.en.Close) }

// Executor exposes the underlying executor (replica 0's under
// WithReplicas) for advanced use: checkpoints, parameter inspection,
// recovery loops.
func (t *Trainer) Executor() *train.Executor { return t.en.Executors()[0] }

// Telemetry returns the sink the trainer reports to (nil when none was
// configured).
func (t *Trainer) Telemetry() *Telemetry { return t.Executor().Telemetry() }

// PoolStats returns a snapshot of the trainer's buffer pool counters; the
// zero Stats when pooling is off. With the shared pool, counts aggregate
// across every trainer using it.
func (t *Trainer) PoolStats() PoolStats {
	if t.pool == nil {
		return PoolStats{}
	}
	return t.pool.Stats()
}

// StashStoreStats is a snapshot of a tiered stash store's residency and
// spill counters.
type StashStoreStats = stashstore.Stats

// StashStats returns the trainer's stash-store counters, summed across
// replicas under WithReplicas. Every encoded stash waits in the store
// between encode and decode, so Puts, Hits and HotPeakBytes are populated
// on every encoded run; Evictions, Misses and the spill byte counts stay 0
// without WithStashBudget. Summed peaks are an upper bound on simultaneous
// hot-tier residency, so HotPeakBytes <= the configured budget certifies
// the cap held.
func (t *Trainer) StashStats() StashStoreStats {
	var sum StashStoreStats
	for _, e := range t.en.Executors() {
		sum.Accumulate(e.StashStore().Stats())
	}
	return sum
}
