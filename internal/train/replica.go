package train

// The data-parallel replica engine. A ReplicaGroup runs N executor
// replicas of one model and splits every training step's minibatch across
// them, merging the shard gradients with the deterministic tree reduce in
// internal/reduce and applying the update once, on the lead executor whose
// parameters and momenta every replica views.
//
// The determinism unit is the micro-shard, not the replica: a group with S
// shards always cuts the step's minibatch into the same S fixed pieces
// (shard s = rows [s*b, (s+1)*b) at the graph's batch size b), runs each
// shard as an independent forward+backward, and merges the S shard
// gradients in canonical shard order. Replicas only decide which executor
// runs which shard (round-robin: replica r takes shards r, r+N, ...), so
// the merged gradient — and therefore every weight after the step — is
// byte-identical at every replica count and every worker count, as long as
// the shard count is fixed. Per-shard dropout reseeds from (seed, step,
// shard) for the same reason.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gist/internal/faults"
	"gist/internal/graph"
	"gist/internal/reduce"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// ErrStepAbandoned marks a replica step that exhausted its per-shard retry
// budget: every gradient was zeroed, no parameter update was applied, and
// the caller may simply issue the next step.
var ErrStepAbandoned = errors.New("train: replica step abandoned")

// ReplicaConfig sizes a ReplicaGroup.
type ReplicaConfig struct {
	// Replicas is the number of concurrent executor replicas (<=1 runs the
	// single-executor path inline). Clamped to Shards: an executor with no
	// shard assigned would sit idle.
	Replicas int
	// Shards is the number of micro-shards each step's minibatch is cut
	// into; the group consumes Shards x graph-batch rows per step. 0
	// defaults to Replicas. Results are bit-identical across replica and
	// worker counts only at a fixed shard count — pin Shards when comparing
	// runs at different Replicas.
	Shards int
	// MaxRetries is the per-shard retry budget for injected stash faults;
	// past it the whole step is abandoned with zeroed gradients.
	MaxRetries int
}

// ReplicaGroup is N data-parallel executor replicas training one model.
// Replica 0, the lead, owns the caller's graph, the encoding analysis and
// the parameters and momenta; every other replica runs on a clone of the
// graph (its own batch-norm running statistics) with its own gradient
// flat, step arena and stash store, and reads the lead's analysis and
// views the lead's parameters and momenta. All replicas share the group's
// buffer pool (each accounts its step arena there), codec, telemetry sink
// and fault injector. Not safe for concurrent Step calls; each group is
// one training loop.
type ReplicaGroup struct {
	cfg   ReplicaConfig
	execs []*Executor
	seed  uint64
	inj   *faults.Injector

	graphBatch int // rows per shard (the graph input's batch dimension)
	shardElems int // input elements per shard
	groupBatch int // rows per group step = Shards * graphBatch

	// Persistent per-shard input views: Data re-points into the step's
	// input tensor, so sharding allocates nothing.
	shardX []*tensor.Tensor
	// Per-replica persistent label buffers: each executor always sees the
	// same []int backing array, so the softmax layer's label re-boxing
	// (an allocation) never triggers in steady state.
	labelBuf [][]int

	gradElems int
	gradBufs  [][]float32 // per-shard gradient flats, allocated once
	merger    *reduce.Merger

	shardLoss []float64
	shardErrs []int
	shardFail []error

	labels []int
	step   int

	// cmds wakes each replica worker for its share of a step; wg counts the
	// shares in flight and, at Close, the workers' exits.
	cmds      []chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// ctx, when non-nil, is polled before every shard attempt so a
	// cancelled or deadline-expired group step aborts within one shard's
	// latency without applying a parameter update. Bound by SetContext.
	ctx context.Context

	tel         *telemetry.Sink
	reduceNS    *telemetry.Histogram // replica.reduce.ns
	reduceBytes *telemetry.Counter   // replica.reduce.bytes
	stragglerNS *telemetry.Gauge     // replica.straggler.ns
	retries     *telemetry.Counter   // replica.shard.retries
	failures    *telemetry.Counter   // replica.shard.failures
	abandons    *telemetry.Counter   // replica.steps.abandoned
	busyNS      []int64              // per-replica compute time this step (sink armed only)
}

// NewReplicaGroup builds a group of cfg.Replicas executors over g with the
// given executor options. The lead is NewExecutor(g, opts); replicas beyond
// it run on clones of g, so mutable operator state (batch-norm running
// statistics) is never shared, and carry the lead's analysis — node IDs
// and shapes are the clone's too — and views of its parameter and
// momentum flats, so they allocate and initialize no weight.
func NewReplicaGroup(g *graph.Graph, opts Options, cfg ReplicaConfig) *ReplicaGroup {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = cfg.Replicas
	}
	if cfg.Replicas > cfg.Shards {
		cfg.Replicas = cfg.Shards
	}

	rg := &ReplicaGroup{
		cfg:  cfg,
		seed: opts.Seed,
		inj:  opts.Faults,
		tel:  opts.Telemetry,
	}
	if opts.StashBudget > 0 && cfg.Replicas > 1 {
		// Split the group's stash budget statically across the replicas'
		// stores: a fixed per-replica share keeps eviction a pure function
		// of each replica's own liveness (a dynamically shared pot would
		// make placement depend on cross-replica timing). The shares sum to
		// at most the configured budget.
		if opts.StashBudget /= int64(cfg.Replicas); opts.StashBudget < 1 {
			opts.StashBudget = 1
		}
	}
	rg.execs = make([]*Executor, cfg.Replicas)
	rg.execs[0] = NewExecutor(g, opts)
	for r := 1; r < cfg.Replicas; r++ {
		rg.execs[r] = newExecutor(g.Clone(), opts, rg.execs[0])
	}

	in := g.InputNodes()
	if len(in) != 1 {
		panic(fmt.Sprintf("train: replica group wants exactly 1 input node, got %d", len(in)))
	}
	rg.graphBatch = in[0].OutShape[0]
	rg.shardElems = in[0].OutShape.NumElements()
	rg.groupBatch = cfg.Shards * rg.graphBatch

	rg.shardX = make([]*tensor.Tensor, cfg.Shards)
	for s := range rg.shardX {
		rg.shardX[s] = &tensor.Tensor{Shape: in[0].OutShape.Clone()}
	}
	rg.labelBuf = make([][]int, cfg.Replicas)
	for r := range rg.labelBuf {
		rg.labelBuf[r] = make([]int, rg.graphBatch)
	}

	rg.gradElems = len(rg.execs[0].gradFlat)
	rg.gradBufs = make([][]float32, cfg.Shards)
	for s := range rg.gradBufs {
		rg.gradBufs[s] = make([]float32, rg.gradElems)
	}
	// The merge runs on the executor's codec worker pool — the same budget
	// the encode/decode chunks share.
	rg.merger = reduce.NewMerger(rg.execs[0].cdc.WorkerPool(), 0)

	rg.shardLoss = make([]float64, cfg.Shards)
	rg.shardErrs = make([]int, cfg.Shards)
	rg.shardFail = make([]error, cfg.Shards)

	rg.reduceNS = rg.tel.Histogram("replica.reduce.ns")
	rg.reduceBytes = rg.tel.Counter("replica.reduce.bytes")
	rg.stragglerNS = rg.tel.Gauge("replica.straggler.ns")
	rg.retries = rg.tel.Counter("replica.shard.retries")
	rg.failures = rg.tel.Counter("replica.shard.failures")
	rg.abandons = rg.tel.Counter("replica.steps.abandoned")
	rg.busyNS = make([]int64, cfg.Replicas)

	if cfg.Replicas > 1 {
		rg.cmds = make([]chan struct{}, cfg.Replicas)
		for r := range rg.cmds {
			rg.cmds[r] = make(chan struct{})
			go rg.worker(r)
		}
	}
	return rg
}

// worker is replica r's persistent goroutine: it parks on the command
// channel between steps, so steady-state steps spawn nothing, and counts
// its exit on wg when Close closes the channel.
func (rg *ReplicaGroup) worker(r int) {
	for range rg.cmds[r] {
		rg.computeReplica(r)
		rg.wg.Done()
	}
	rg.wg.Done()
}

// compute runs every replica's share of the step's shards and waits for
// all of them — the step's one barrier.
func (rg *ReplicaGroup) compute() {
	if len(rg.cmds) == 0 {
		rg.computeReplica(0)
		return
	}
	rg.wg.Add(len(rg.cmds))
	for _, c := range rg.cmds {
		c <- struct{}{}
	}
	rg.wg.Wait()
}

// computeReplica runs replica r's round-robin share of the step's shards.
func (rg *ReplicaGroup) computeReplica(r int) {
	var t0 time.Time
	if rg.tel != nil {
		t0 = time.Now()
	}
	for s := r; s < rg.cfg.Shards; s += len(rg.execs) {
		rg.runShard(r, s)
	}
	if rg.tel != nil {
		rg.busyNS[r] = time.Since(t0).Nanoseconds()
	}
}

// runShard runs one micro-shard's forward+backward on replica r, retrying
// injected stash faults up to the budget. Each attempt reseeds the RNG and
// starts from zeroed gradients (Backward's failure path zeroes them), so a
// successful retry is bit-identical to a never-failed attempt. The shard's
// gradient is exported flat (graph-node order) and the executor's
// accumulators are re-zeroed for the replica's next shard.
func (rg *ReplicaGroup) runShard(r, s int) {
	e := rg.execs[r]
	lab := rg.labelBuf[r]
	copy(lab, rg.labels[s*rg.graphBatch:(s+1)*rg.graphBatch])
	for attempt := 0; ; attempt++ {
		if err := rg.ctxErr(); err != nil {
			// Cancellation between shards: this shard never ran, so
			// TryStep will refuse the update. Remaining shards observe
			// the same cancellation.
			rg.shardFail[s] = err
			return
		}
		e.rng.SetState(tensor.Mix(rg.seed, uint64(rg.step), uint64(s)))
		e.beginAttempt(rg.step, s)
		e.Forward(rg.shardX[s], lab, true)
		loss, errs := e.lossOf(lab)
		rg.shardLoss[s], rg.shardErrs[s] = loss, errs
		err := e.Backward()
		if err == nil {
			rg.shardFail[s] = nil
			e.exportGrads(rg.gradBufs[s])
			return
		}
		if attempt >= rg.cfg.MaxRetries {
			rg.shardFail[s] = err
			rg.failures.Inc()
			return
		}
		rg.retries.Inc()
	}
}

// exportGrads copies the executor's gradient flat into dst, then zeroes it
// so the replica's next shard starts clean (backward accumulates; the
// single-executor path relies on SGD for this zeroing).
func (e *Executor) exportGrads(dst []float32) {
	copy(dst, e.gradFlat)
	e.zeroGrads()
}

// SetContext binds a context to the group's step loop. TryStep polls it at
// step entry and before every shard attempt, so cancellation or deadline
// expiry aborts the step within one shard's latency: the merge and the
// update are skipped, and the error wraps the context's error (test with
// errors.Is). A nil ctx unbinds. Not safe to call concurrently with a step
// in flight.
func (rg *ReplicaGroup) SetContext(ctx context.Context) { rg.ctx = ctx }

// ctxErr reports the bound context's cancellation state (nil when unbound).
func (rg *ReplicaGroup) ctxErr() error {
	if rg.ctx == nil {
		return nil
	}
	return rg.ctx.Err()
}

// Batch returns the rows one group step consumes: Shards x the graph's
// batch size. Step inputs must carry exactly this many rows.
func (rg *ReplicaGroup) Batch() int { return rg.groupBatch }

// Replicas returns the executor replica count after clamping.
func (rg *ReplicaGroup) Replicas() int { return len(rg.execs) }

// Shards returns the micro-shard count — the group's determinism unit.
func (rg *ReplicaGroup) Shards() int { return rg.cfg.Shards }

// Executor returns replica 0's executor (the one owning the caller's
// graph), for checkpoints and parameter inspection.
func (rg *ReplicaGroup) Executor() *Executor { return rg.execs[0] }

// Executors returns every replica's executor in replica order. Resuming a
// checkpointed group loads the checkpoint into each one: the parameters and
// momenta into the flats they all view, and each replica's batch-norm
// statistics and RNG into its own.
func (rg *ReplicaGroup) Executors() []*Executor { return rg.execs }

// SetResumeStep aligns the group's internal step counter (the per-shard
// dropout reseed input and the fault injector's step clock) and every
// replica's resume count to n completed steps, so a resumed group
// replays the exact RNG streams of an uninterrupted run.
func (rg *ReplicaGroup) SetResumeStep(n int) {
	rg.step = n
	for _, e := range rg.execs {
		e.SetResumeStep(n)
	}
}

// ResumeStep returns the completed-step count (set by SetResumeStep or a
// checkpoint load on replica 0).
func (rg *ReplicaGroup) ResumeStep() int { return rg.execs[0].ResumeStep() }

// SetSparsityProbe arms per-step ReLU sparsity capture on every replica
// (ReLUSparsities reports the view of the replica that ran the step's last
// shard).
func (rg *ReplicaGroup) SetSparsityProbe(on bool) {
	for _, e := range rg.execs {
		e.SetSparsityProbe(on)
	}
}

// ReLUSparsities returns the latest ReLU sparsity capture from the
// replica that computed the final shard. A probe capture is "the latest
// forward pass", and a single executor driven over S shards reports
// shard S-1 — so the group reads the replica that ran that same shard,
// keeping probe output independent of the replica count.
func (rg *ReplicaGroup) ReLUSparsities() map[string]float64 {
	return rg.execs[(rg.cfg.Shards-1)%rg.cfg.Replicas].ReLUSparsities()
}

// armShards re-points the persistent shard views at the step's input.
func (rg *ReplicaGroup) armShards(x *tensor.Tensor) {
	for s := range rg.shardX {
		rg.shardX[s].Data = x.Data[s*rg.shardElems : (s+1)*rg.shardElems]
	}
}

// TryStep runs one data-parallel training step over a Shards x graph-batch
// minibatch: shard forward/backward on the replicas, deterministic tree
// reduce of the shard gradients, then one clip+SGD on the lead, whose
// parameters and momenta every replica views. The
// returned loss is the mean over the step's shards (the same per-sample
// mean a single executor reports) and errs the summed top-1 errors.
//
// A non-nil error means the step was abandoned: some shard exhausted its
// retry budget against injected faults. All gradients are zero and no
// parameter update was applied; the error wraps ErrStepAbandoned and the
// shard's failure.
func (rg *ReplicaGroup) TryStep(x *tensor.Tensor, labels []int, lr float32) (loss float64, errs int, err error) {
	if len(x.Data) != rg.shardElems*rg.cfg.Shards {
		panic(fmt.Sprintf("train: replica step input has %d elements, want %d (batch %d)",
			len(x.Data), rg.shardElems*rg.cfg.Shards, rg.groupBatch))
	}
	if len(labels) != rg.groupBatch {
		panic(fmt.Sprintf("train: replica step got %d labels, want %d", len(labels), rg.groupBatch))
	}
	if cerr := rg.ctxErr(); cerr != nil {
		return 0, 0, fmt.Errorf("train: replica step not started: %w", cerr)
	}
	rg.step++
	rg.inj.BeginStep(rg.step)
	rg.armShards(x)
	rg.labels = labels

	rg.compute()

	var failed error
	for s := range rg.shardFail {
		loss += rg.shardLoss[s]
		errs += rg.shardErrs[s]
		if failed == nil && rg.shardFail[s] != nil {
			failed = rg.shardFail[s]
		}
	}
	loss /= float64(rg.cfg.Shards)
	if failed != nil {
		if errors.Is(failed, context.Canceled) || errors.Is(failed, context.DeadlineExceeded) {
			// Cancellation, not a fault: no update was applied. Surface
			// the context error directly so callers can errors.Is on it.
			return loss, errs, fmt.Errorf("train: replica step canceled: %w", failed)
		}
		rg.abandons.Inc()
		return loss, errs, fmt.Errorf("%w: %w", ErrStepAbandoned, failed)
	}

	var t0 time.Time
	if rg.tel != nil {
		t0 = time.Now()
	}
	if err := rg.merger.Merge(rg.gradBufs, 1/float32(rg.cfg.Shards)); err != nil {
		// Unreachable by construction (equal-length buffers);
		// fail loudly rather than training on garbage.
		panic("train: replica reduce: " + err.Error())
	}
	if rg.tel != nil {
		rg.reduceNS.Observe(time.Since(t0).Nanoseconds())
		rg.reduceBytes.Add(int64(rg.gradElems) * 4 * int64(rg.cfg.Shards))
		minB, maxB := rg.busyNS[0], rg.busyNS[0]
		for _, b := range rg.busyNS[1:] {
			minB = min(minB, b)
			maxB = max(maxB, b)
		}
		rg.stragglerNS.Set(maxB - minB)
	}
	// Shard 0 carries the merged gradient. The replicas are parked at the
	// barrier, so the lead updates the flats they view alone.
	lead := rg.execs[0]
	copy(lead.gradFlat, rg.gradBufs[0])
	lead.ClipGradNorm(5)
	lead.SGD(lr, 0.9, 1e-4)
	return loss, errs, nil
}

// Step is TryStep for runs without fault injection, panicking on the
// abandon path exactly as Executor.Step does.
func (rg *ReplicaGroup) Step(x *tensor.Tensor, labels []int, lr float32) (loss float64, errors int) {
	loss, errors, err := rg.TryStep(x, labels, lr)
	if err != nil {
		panic(fmt.Sprintf("train: replica Step under fault injection must use TryStep: %v", err))
	}
	return loss, errors
}

// Eval runs an inference-mode forward over a group-batch minibatch on
// replica 0, shard by shard, returning the mean loss and summed top-1
// errors.
func (rg *ReplicaGroup) Eval(x *tensor.Tensor, labels []int) (loss float64, errors int) {
	if len(x.Data) != rg.shardElems*rg.cfg.Shards {
		panic(fmt.Sprintf("train: replica eval input has %d elements, want %d",
			len(x.Data), rg.shardElems*rg.cfg.Shards))
	}
	rg.armShards(x)
	for s := 0; s < rg.cfg.Shards; s++ {
		l, e := rg.execs[0].Eval(rg.shardX[s], labels[s*rg.graphBatch:(s+1)*rg.graphBatch])
		loss += l
		errors += e
	}
	return loss / float64(rg.cfg.Shards), errors
}

// Close shuts the replica workers down, waits for them to exit, and
// promptly returns every replica's step arena to the pool. Idempotent and
// safe to call from multiple goroutines concurrently — exactly one caller
// performs the shutdown, and a double Close never double-releases a pooled
// buffer. The group must not be stepped after (or concurrently with) Close.
func (rg *ReplicaGroup) Close() {
	rg.closeOnce.Do(func() {
		rg.wg.Add(len(rg.cmds))
		for _, c := range rg.cmds {
			close(c)
		}
		rg.wg.Wait()
		for _, e := range rg.execs {
			e.Close()
		}
	})
}
