// Package train executes graphs for real: it allocates tensors, runs every
// operator's forward and backward kernels, applies SGD, and reproduces the
// numerical behaviour of Gist's encodings inside the training loop. The
// paper's accuracy experiment (Figure 12) is this package's reason to
// exist: the executor can quantize activations immediately after each layer
// (the conventional "All-FP16" scheme whose forward error compounds) or
// delay the reduction to the stashed copy only (DPR, forward stays exact),
// and it can round-trip stashes through the real Binarize/SSDC/DPR
// encoders.
package train

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/stashstore"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// PrecisionMode selects how activations are reduced during training.
type PrecisionMode int

const (
	// FullPrecision is the FP32 baseline.
	FullPrecision PrecisionMode = iota
	// AllReduced quantizes every layer output immediately after it is
	// computed, so the error is injected into the forward pass and
	// propagates — the conventional scheme the paper shows failing.
	AllReduced
	// DelayedReduced quantizes only the stashed copy used by the backward
	// pass; forward consumers see full FP32 values (Gist's DPR).
	DelayedReduced
)

// String names the mode as the paper's figures do.
func (m PrecisionMode) String() string {
	switch m {
	case FullPrecision:
		return "Baseline-FP32"
	case AllReduced:
		return "All-Reduced"
	case DelayedReduced:
		return "Gist-DPR"
	}
	return fmt.Sprintf("PrecisionMode(%d)", int(m))
}

// Options configures an executor.
type Options struct {
	Mode   PrecisionMode
	Format floatenc.Format
	// Encodings, when non-nil, round-trips every assigned stash through
	// the real encoder kernels (Binarize mask, narrow CSR, packed DPR)
	// instead of in-place quantization, verifying the full machinery.
	Encodings *encoding.Analysis
	// Seed drives weight initialization and dropout.
	Seed uint64
	// Integrity seals every encoded stash with a CRC32-C checksum at encode
	// and verifies it at decode, turning silent corruption of the held
	// representation into a typed ErrCorruptStash. Off by default (the
	// zero-overhead path); forced on while fault injection is active.
	Integrity bool
	// Faults, when non-nil and enabled, injects deterministic faults into
	// the encode→hold→decode path (see the faults package). Runs with
	// injection must drive the executor through TryStep or RunRecoverable,
	// which surface the injected failures as errors.
	Faults *faults.Injector
	// Telemetry, when non-nil, receives per-step phase spans
	// (forward/encode/backward/SGD), overlap hit/miss counters, robustness
	// counters mirroring RobustnessStats, and a per-step memory sample
	// (raw vs held stash bytes, split by technique). The nil default costs
	// only nil checks on the step path.
	Telemetry *telemetry.Sink
	// Codec, when non-nil, is the codec this executor encodes, seals and
	// decodes stashes through — its own worker pool, chunk size, telemetry
	// and scratch pool, isolated from every other executor. Nil selects the
	// process-wide default codec as it stands when NewExecutor runs; either
	// way the codec is fixed for the executor's lifetime.
	Codec *encoding.Codec
	// Pool, when non-nil, is where every per-step tensor (activation,
	// gradient, decode target) is drawn from and recycled to at its last
	// use — a feature map no backward kernel reads, and the FP32 form of an
	// encoded one, right after its last forward consumer ran; a decode
	// target from the start of its fetch to its final backward reader;
	// stashed activations after that reader; gradients once merged
	// downstream — so steady-state training allocates nothing and a buffer
	// freed at one layer serves the next. Nil means heap allocation:
	// recycling is a no-op and every node's Output stays valid after the
	// step. The step path and its results are the same either way.
	Pool *bufpool.Pool
	// StashBudget, when positive, caps the bytes the executor's
	// stashstore.Store holds in RAM across the forward→backward gap: the
	// stashes whose backward use is furthest away spill to disk as sealed
	// GSTP pages and are read back by their fetch-then-decode futures.
	// Under a cap every stash is encoded (unassigned ones into an exact
	// FP32 dense container) so the cap covers every byte held. Placement
	// is a pure function of the liveness analysis and the spill round
	// trip is bit-exact, so results are identical at any budget. Zero (the
	// default) means no cap and no spill file.
	StashBudget int64
	// SpillDir is where the stash store's spill file lives; "" means the
	// OS temp dir. Only consulted when StashBudget is positive.
	SpillDir string
}

// execMetrics caches the executor's instruments so the step path never does
// a name lookup. All fields are nil (valid no-op instruments) when the
// executor has no sink.
type execMetrics struct {
	steps        *telemetry.Counter   // successful + failed step attempts
	stepFailures *telemetry.Counter   // attempts that returned an error
	stepNS       *telemetry.Histogram // whole-step latency
	forwardNS    *telemetry.Histogram
	encodeNS     *telemetry.Histogram // the step's retirements, summed (encode + seal + put + arm)
	backwardNS   *telemetry.Histogram
	sgdNS        *telemetry.Histogram
	stashHeld    *telemetry.Histogram // per-step held stash bytes

	overlapHits *telemetry.Counter // decode future already resolved at use
	overlapMiss *telemetry.Counter // consumer had to wait on (or start) the decode
	gradZero    *telemetry.Counter // mid-backward failures that zeroed gradients

	// Mirrors of RobustnessStats, so the snapshot and the RecoveryReport
	// agree by construction.
	ssdcFallbacks *telemetry.Counter
	crcDetected   *telemetry.Counter
	chunkLocated  *telemetry.Counter // CRC detections localized to one chunk
	injEncode     *telemetry.Counter
	injDecode     *telemetry.Counter
	injAlloc      *telemetry.Counter
	spillWriteErr *telemetry.Counter // failed spill-page writes (injected ENOSPC)
	spillReadErr  *telemetry.Counter // corrupt/torn spill pages caught at fetch
}

func newExecMetrics(s *telemetry.Sink) execMetrics {
	return execMetrics{
		steps:         s.Counter("train.steps"),
		stepFailures:  s.Counter("train.step.failures"),
		stepNS:        s.Histogram("train.step.ns"),
		forwardNS:     s.Histogram("train.forward.ns"),
		encodeNS:      s.Histogram("train.encode.ns"),
		backwardNS:    s.Histogram("train.backward.ns"),
		sgdNS:         s.Histogram("train.sgd.ns"),
		stashHeld:     s.Histogram("train.stash.held_bytes"),
		overlapHits:   s.Counter("train.overlap.hits"),
		overlapMiss:   s.Counter("train.overlap.misses"),
		gradZero:      s.Counter("train.grad_zeroing"),
		ssdcFallbacks: s.Counter("train.ssdc_fallbacks"),
		crcDetected:   s.Counter("train.crc_detected"),
		chunkLocated:  s.Counter("train.crc.chunk_located"),
		injEncode:     s.Counter("train.injected.encode_failures"),
		injDecode:     s.Counter("train.injected.decode_failures"),
		injAlloc:      s.Counter("train.injected.alloc_failures"),
		spillWriteErr: s.Counter("train.spill.write_failures"),
		spillReadErr:  s.Counter("train.spill.read_failures"),
	}
}

// RobustnessStats counts the degradation and corruption events one
// executor observed — the per-run robustness counters the RecoveryReport
// aggregates and cross-checks against the injector's log.
type RobustnessStats struct {
	// SSDCFallbacks counts stashes whose runtime sparsity made narrow CSR
	// larger than the dense DPR alternative, degrading to dense encoding.
	SSDCFallbacks int64
	// CRCFailures counts corrupt stashes detected by checksum at decode.
	CRCFailures int64
	// EncodeFailures, DecodeFailures and AllocFailures count injected
	// failures of the respective stash operations.
	EncodeFailures int64
	DecodeFailures int64
	AllocFailures  int64
	// SpillWriteFailures counts failed spill-page writes (the injector's
	// ENOSPC transient); SpillReadFailures counts spill pages whose
	// corruption or truncation the page CRC / bounded parser caught at
	// fetch time.
	SpillWriteFailures int64
	SpillReadFailures  int64
}

// Executor owns the parameters and scratch state for training one graph.
type Executor struct {
	G    *graph.Graph
	opts Options

	params map[int][]*tensor.Tensor
	grads  map[int][]*tensor.Tensor
	moms   map[int][]*tensor.Tensor
	rng    *tensor.RNG

	// Per-step state, indexed by node ID (graph.Validate guarantees IDs
	// are dense). outs holds each node's forward output for the current
	// step; stash holds the view backward readers see — the output itself
	// for an aliased stash, else the decoded tensor once the node's future
	// has been resolved. All slices are allocated once and reused every
	// step.
	outs  []*tensor.Tensor
	stash []*tensor.Tensor
	aux   []map[string]any

	// futures holds one persistent fetch-then-decode slot per node, re-armed
	// each step, and encSlots one persistent encode container per node,
	// rebuilt in place each step — so the stash lifecycle allocates nothing
	// per step. nFutures counts the slots currently armed.
	futures  []stashFuture
	nFutures int
	encSlots []encoding.EncodedStash

	// retireAt[i] lists, in node order, the nodes whose output's last
	// forward reader is forward step i (graph.LastForwardUse) — Gist's
	// "right after its last forward use". A training Forward retires them
	// there through stashNode; sink outputs are absent (the loss is read
	// after Forward) and are stashed when Backward opens. fwdRetired says
	// whether the latest Forward did so; stashErr holds the failure that
	// stopped it, for Backward to return.
	retireAt   [][]*graph.Node
	fwdRetired bool
	stashErr   error

	// Pooling state. pool is nil on the allocate-always path. checkedOut
	// is the executor-side ledger of pooled tensors currently held; every
	// pooled alloc registers here and every recycle point goes through
	// recycle(), which ignores tensors not in the ledger — so an aliased
	// stash (stash == out) is returned exactly once, and anything a failed
	// step leaves behind is swept at the next Forward.
	pool       *bufpool.Pool
	checkedOut map[*tensor.Tensor]struct{}

	// bwdReads is the static per-node count of backward reads of each
	// node's stashed output, derived from the raw Op.Needs() of every
	// consumer (plus the node's own Y-dependence) — the executor-level
	// liveness the recycler drains. Raw needs, not the encoding analysis's
	// effective needs: a MaxPool above a Binarize-encoded ReLU still reads
	// its decoded X and Y stashes at runtime. bwdLeft is the per-pass
	// remaining count; gradOf accumulates downstream gradients. An output
	// with no backward read at all is the paper's "immediately consumed"
	// class: it recycles at retirement.
	bwdReads []int
	bwdLeft  []int
	gradOf   []*tensor.Tensor

	// Reusable per-node scratch for forward/backward input and gradient
	// slices and the kernel contexts.
	insBuf  []*tensor.Tensor
	dInsBuf []*tensor.Tensor
	fwdCtx  layers.FwdCtx
	bwdCtx  layers.BwdCtx

	// probeSparsity arms per-step ReLU sparsity capture (set by the run
	// loops when RunConfig.ProbeSparsity asks for the Figure 14 probe);
	// sparsities holds the last captured values.
	probeSparsity bool
	sparsities    map[string]float64

	// StashBytes records, per step, the total bytes of the stashed
	// representations held across the forward→backward gap — the sum of
	// the encoded containers' Bytes() plus the aliased outputs — a runtime
	// cross-check of the planner.
	StashBytes int64

	// Robust accumulates degradation and corruption counters over the
	// executor's lifetime.
	Robust RobustnessStats

	// cdc is the codec every stash is encoded, sealed and decoded through,
	// resolved once at construction. store is the home of every encoded
	// stash between encode and fetch: RAM only, with no cap and no file,
	// unless Options.StashBudget is positive.
	cdc   encoding.Codec
	store *stashstore.Store

	tel       *telemetry.Sink
	met       execMetrics
	stepCount int             // steps attempted, numbers spans and memory samples
	stepSpan  *telemetry.Span // root span of the in-flight TryStep (nil otherwise)
	mem       memAccum        // the step's stash-memory sample, building (sink only)
	encodeNS  int64           // the step's summed retirement time (sink only)

	// ctx, when non-nil, is polled at step phase boundaries (step entry,
	// post-forward, post-backward) so a cancelled or deadline-expired
	// training job aborts within one step's latency with no partial
	// parameter update. Bound by SetContext; nil means never cancelled.
	ctx context.Context

	// resumeStep is the completed-step count carried through checkpoints:
	// SaveCheckpoint embeds it and LoadCheckpoint restores it, so a resumed
	// job knows where its data stream must fast-forward to.
	resumeStep int
}

// NewExecutor initializes parameters (He init for conv/FC weights, ones and
// zeros for batch-norm scale/shift, zero biases).
func NewExecutor(g *graph.Graph, opts Options) *Executor {
	if opts.Format == floatenc.FP32 && opts.Mode != FullPrecision {
		panic("train: reduced mode requires a reduced format")
	}
	e := &Executor{
		G: g, opts: opts,
		params: map[int][]*tensor.Tensor{},
		grads:  map[int][]*tensor.Tensor{},
		moms:   map[int][]*tensor.Tensor{},
		rng:    tensor.NewRNG(opts.Seed),
		pool:   opts.Pool,
		tel:    opts.Telemetry,
		met:    newExecMetrics(opts.Telemetry),
	}
	opts.Faults.SetTelemetry(opts.Telemetry)

	e.cdc = encoding.DefaultCodec()
	if opts.Codec != nil {
		e.cdc = *opts.Codec
	}
	if e.cdc.Buf == nil {
		e.cdc.Buf = e.pool // codec scratch comes from the executor's pool
	}

	// Eviction priorities are a pure function of the liveness analysis: the
	// stash whose first backward use lies furthest in the future spills
	// first, so placement under a budget never depends on timing.
	nn := len(g.Nodes)
	tl := graph.BuildTimeline(g)
	pri := make([]int, nn)
	names := make([]string, nn)
	e.retireAt = make([][]*graph.Node, nn)
	for _, n := range g.Nodes {
		pri[n.ID] = graph.FirstBackwardUse(tl, n)
		names[n.ID] = n.Name
		if len(n.Consumers()) > 0 {
			at := graph.LastForwardUse(tl, n)
			e.retireAt[at] = append(e.retireAt[at], n)
		}
	}
	e.store = stashstore.New(stashstore.Config{
		Budget:   opts.StashBudget,
		Dir:      opts.SpillDir,
		Priority: pri,
		Names:    names,
		Tel:      opts.Telemetry,
		Faults:   opts.Faults,
	})

	e.outs = make([]*tensor.Tensor, nn)
	e.stash = make([]*tensor.Tensor, nn)
	e.futures = make([]stashFuture, nn)
	e.encSlots = make([]encoding.EncodedStash, nn)
	e.aux = make([]map[string]any, nn)
	e.bwdReads = make([]int, nn)
	e.bwdLeft = make([]int, nn)
	e.gradOf = make([]*tensor.Tensor, nn)
	e.sparsities = map[string]float64{}
	if e.tel != nil {
		e.mem.byTech = map[string]telemetry.TechBytes{}
	}
	e.checkedOut = make(map[*tensor.Tensor]struct{}, 2*nn)
	for _, n := range g.Nodes {
		f := &e.futures[n.ID]
		f.store, f.cdc, f.tel, f.sid, f.node, f.shape = e.store, e.cdc, e.tel, n.ID, n.Name, n.OutShape
		f.run = f.launch // bound once, so `go f.run()` allocates nothing per step
		e.aux[n.ID] = map[string]any{}
		// Count the backward pass's reads of this node's stashed output
		// from raw operator needs; recycle points drain these counts.
		needs := n.Op.Needs()
		if needs.Y {
			e.bwdReads[n.ID]++
		}
		if needs.X {
			for _, in := range n.Inputs {
				e.bwdReads[in.ID]++
			}
		}
	}

	for _, n := range g.Nodes {
		if len(n.ParamShapes) == 0 {
			continue
		}
		ps := make([]*tensor.Tensor, len(n.ParamShapes))
		gs := make([]*tensor.Tensor, len(n.ParamShapes))
		ms := make([]*tensor.Tensor, len(n.ParamShapes))
		for i, shape := range n.ParamShapes {
			ps[i] = tensor.New(shape...)
			gs[i] = tensor.New(shape...)
			ms[i] = tensor.New(shape...)
			switch {
			case n.Kind() == layers.BatchNorm && i == 0:
				ps[i].Fill(1) // gamma
			case n.Kind() == layers.BatchNorm && i == 1:
				// beta stays zero
			case i == 0:
				fanIn := shape.NumElements() / shape[0]
				ps[i].FillHe(e.rng, fanIn)
			}
		}
		e.params[n.ID] = ps
		e.grads[n.ID] = gs
		e.moms[n.ID] = ms
	}
	return e
}

// alloc returns a zeroed tensor of the given shape — from the pool (and the
// checked-out ledger) when pooling is on, from the heap otherwise.
func (e *Executor) alloc(shape tensor.Shape) *tensor.Tensor {
	if e.pool == nil {
		return tensor.New(shape...)
	}
	t := e.pool.Get(shape...)
	e.checkedOut[t] = struct{}{}
	return t
}

// recycle returns a pooled tensor at its last use. Tensors the ledger does
// not hold — heap tensors (the ledger stays empty without a pool), aliases
// already recycled, parameters, nil — are ignored, so recycle points can be
// written against logical lifetimes without tracking aliasing.
func (e *Executor) recycle(t *tensor.Tensor) {
	if _, ok := e.checkedOut[t]; !ok {
		return
	}
	delete(e.checkedOut, t)
	e.pool.Recycle(t)
}

// sweep returns every pooled tensor still checked out — the step's
// leftovers (the loss output, dead branches, anything a failed step
// stranded). Runs at the start of each Forward, when nothing from the
// previous step can be referenced anymore.
func (e *Executor) sweep() {
	for t := range e.checkedOut {
		e.pool.Recycle(t)
	}
	clear(e.checkedOut)
}

// SetContext binds a context to the executor's step loop. TryStep polls it
// at phase boundaries — step entry, after the forward pass, and after the
// backward pass but before the SGD update — so cancellation or deadline
// expiry surfaces as a step error within one step's latency, always with
// the no-partial-update guarantee intact (a step aborted post-backward
// zeroes its accumulated gradients). A nil ctx unbinds (never cancelled).
// Not safe to call concurrently with a step in flight.
func (e *Executor) SetContext(ctx context.Context) { e.ctx = ctx }

// ctxErr reports the bound context's cancellation state (nil when unbound).
func (e *Executor) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// SetResumeStep records the completed-step count embedded in subsequent
// checkpoints (see ResumeStep).
func (e *Executor) SetResumeStep(n int) { e.resumeStep = n }

// ResumeStep returns the completed-step count of the last checkpoint loaded
// into (or recorded on) this executor — 0 for a fresh executor. A resumed
// training loop continues from step ResumeStep()+1 after fast-forwarding
// its dataset by ResumeStep() batches.
func (e *Executor) ResumeStep() int { return e.resumeStep }

// Close promptly returns every pooled buffer the executor still holds —
// in-flight decode futures are drained first, then the checked-out ledger
// is swept — and drops the per-step output and stash references. This is
// the deterministic release point a job server needs when a job is
// cancelled, paused or quarantined: after Close the shared pool owns every
// buffer again (Stats().InUseBytes from this executor is zero) without
// waiting for a next Forward's sweep. Must run on the executor's goroutine
// (not concurrent with a step); safe to call repeatedly and on an unpooled
// executor (where it only drops references).
func (e *Executor) Close() {
	e.drainFutures()
	e.sweep()
	clear(e.outs)
	clear(e.stash)
	clear(e.gradOf)
	e.insBuf = e.insBuf[:0]
	e.dInsBuf = e.dInsBuf[:0]
	// Drop the store's contents and delete its spill file, if any. The store
	// stays usable (a later step lazily recreates the file), preserving this
	// method's safe-to-call-repeatedly contract.
	_ = e.store.Close()
}

// Batch returns the rows one step consumes: the graph input's batch size.
func (e *Executor) Batch() int { return e.G.InputNodes()[0].OutShape[0] }

// Executors returns the executor itself, as the one-replica Engine.
func (e *Executor) Executors() []*Executor { return []*Executor{e} }

// StashStore returns the store every encoded stash waits in between encode
// and fetch (never nil). Tests and the trainer's stats accessor read
// residency counters through it.
func (e *Executor) StashStore() *stashstore.Store { return e.store }

// Params returns the parameter tensors of a node (nil if none).
func (e *Executor) Params(n *graph.Node) []*tensor.Tensor { return e.params[n.ID] }

// Output returns node n's forward output from the latest step. Retirement
// recycles an output, it never drops the reference: on an unpooled executor
// (where recycling is a no-op) Output is valid for every node after a step,
// which the experiment harnesses that compare per-layer activations rely
// on. Under pooling only the sink outputs and the outputs a backward kernel
// reads unencoded outlive a training Forward.
func (e *Executor) Output(n *graph.Node) *tensor.Tensor { return e.outs[n.ID] }

// Forward runs the forward pass on the given minibatch. Labels are needed
// only when the graph ends in a loss node and Backward will run.
//
// A training Forward executes Gist's schedule as it goes: once node i's
// kernel has run, every output whose last forward reader was node i is
// retired (retireAt) — encoded, sealed and handed to the store, or simply
// recycled when no backward kernel reads it — so the pool's forward peak is
// the planner's, not the sum of every map. An inference Forward retires
// nothing, and neither does one under an enabled fault injector: Backward
// then stashes every node in node order, which is the order the injector's
// sequential draws are pinned to.
func (e *Executor) Forward(input *tensor.Tensor, labels []int, training bool) {
	e.drainFutures() // settle anything a failed previous step left in flight
	e.sweep()
	clear(e.stash)
	e.stashErr = nil
	e.fwdRetired = training && !e.opts.Faults.Enabled()
	if e.fwdRetired {
		e.beginStashes()
	}
	for i, n := range e.G.Nodes {
		out := e.alloc(n.OutShape)
		aux := e.aux[n.ID]
		if n.Kind() == layers.Input {
			if !input.Shape.Equal(n.OutShape) {
				panic(fmt.Sprintf("train: input shape %v, want %v", input.Shape, n.OutShape))
			}
			copy(out.Data, input.Data)
		} else {
			ins := e.insBuf[:0]
			for _, in := range n.Inputs {
				ins = append(ins, e.outs[in.ID])
			}
			e.insBuf = ins
			if n.Kind() == layers.SoftmaxXent {
				// Re-box only when the labels slice itself changed:
				// storing a slice in the any-valued aux map allocates,
				// and steady-state loops pass the same batch buffer.
				prev, ok := aux[layers.AuxKeyLabels].([]int)
				if !ok || len(prev) != len(labels) ||
					(len(labels) > 0 && &prev[0] != &labels[0]) {
					aux[layers.AuxKeyLabels] = labels
				}
			}
			e.fwdCtx = layers.FwdCtx{
				In: ins, Params: e.params[n.ID], Out: out,
				Aux: aux, RNG: e.rng, Train: training,
			}
			n.Op.Forward(&e.fwdCtx)
		}
		if e.opts.Mode == AllReduced && n.Kind() != layers.SoftmaxXent {
			// Conventional scheme: inject quantization error immediately,
			// so every downstream layer consumes reduced values. The loss
			// layer itself stays exact (prior-work schemes quantize layer
			// activations, not the loss).
			floatenc.QuantizeSlice(e.opts.Format, out.Data)
		}
		e.outs[n.ID] = out
		if e.fwdRetired && e.stashErr == nil {
			for _, r := range e.retireAt[i] {
				if e.stashErr = e.retire(r); e.stashErr != nil {
					break // Backward returns it; what is left unretired is swept
				}
			}
		}
	}
}

// stashFuture is the fetch-then-decode of one encoded stash: it pulls the
// stash back from the store (a pointer hand-off on a hot hit, a page read +
// CRC-verified parse on a spilled miss) and decodes it into dst. The
// backward pass starts a future one layer ahead of its consumer, so layer
// l-1's fetch+decode overlaps layer l's backward kernels inside the codec's
// worker budget. Start is lazy and idempotent: a consumer that arrives
// before its prefetch simply starts the work itself and waits.
//
// Slots are persistent (one per node) and re-armed each step. Ownership of
// the decode target dst transfers explicitly: the executor takes it from the
// pool serially when it starts the future (startFuture) — not at arm time,
// so an armed stash holds no FP32 bytes while it waits — exactly one
// goroutine writes it, and it returns to the executor when the future is
// resolved. The pool ledger is never touched off the executor's goroutine.
type stashFuture struct {
	// Bound once at executor construction.
	store *stashstore.Store
	cdc   encoding.Codec
	tel   *telemetry.Sink
	sid   int // node ID keying the store entry
	node  string
	shape tensor.Shape // of the decode target: the node's output shape
	run   func()       // f.launch

	// Per-step state, reset by arm.
	armed   bool
	dst     *tensor.Tensor
	started atomic.Bool
	settled atomic.Bool // decode finished (overlap accounting)
	wg      sync.WaitGroup
	err     error
}

// arm readies the slot for this step's decode. It owns no target yet: a
// decode that somehow launched without one would fail on the nil dst instead
// of scribbling on last step's recycled buffer. The WaitGroup count is taken
// here, on the executor's goroutine, before any start — drainFutures
// balances it even if the decode never launches.
func (f *stashFuture) arm() {
	f.armed, f.dst, f.err = true, nil, nil
	f.started.Store(false)
	f.settled.Store(false)
	f.wg.Add(1)
}

// startFuture launches f's fetch-then-decode on its own goroutine, first
// taking the decode target from the pool; only the first call fires. Every
// start goes through here, on the executor's goroutine, so the pool ledger
// stays serial and the target is live from one node ahead of its consumer
// (prefetch) rather than across the whole forward→backward gap.
func (e *Executor) startFuture(f *stashFuture) {
	if f.started.CompareAndSwap(false, true) {
		f.dst = e.alloc(f.shape)
		go f.run()
	}
}

// launch is the goroutine body: decode while holding a codec worker slot.
func (f *stashFuture) launch() { f.cdc.WorkerPool().Run(f.decode) }

// decode is the one resolution path: fetch the stash from its home, decode
// it into dst.
func (f *stashFuture) decode() {
	defer f.wg.Done()
	defer f.settled.Store(true)
	defer func() {
		// Decode converts corruption to errors, but a panic on a
		// pool goroutine would kill the process; surface it as the
		// future's error instead.
		if r := recover(); r != nil {
			f.err = fmt.Errorf("stash decode panicked: %v", r)
		}
	}()
	if f.tel != nil {
		// Root span on its own track: concurrent futures land on
		// separate tracks, so the trace shows the decode overlap.
		sp := f.tel.Begin("train", "async-decode", telemetry.Str("stash", f.node))
		defer sp.End()
	}
	enc, err := f.store.Fetch(f.sid)
	if err == nil {
		err = f.cdc.DecodeInto(f.dst, enc)
	}
	f.err = err
}

// beginStashes opens a step's stash set: the previous step's containers,
// pages and accounting are dead. Forward calls it when it is about to
// retire, Backward when Forward left every node to it.
func (e *Executor) beginStashes() {
	e.StashBytes = 0
	// Every page from the previous step is dead: rewind the spill file.
	e.store.BeginStep()
	if e.probeSparsity {
		clear(e.sparsities)
	}
	e.mem.reset()
	e.encodeNS = 0
}

// retire runs node n's output through stashNode at the end of its forward
// life — the executor's equivalent of Gist inserting an encode function
// after each stash's last forward use. An instrumented run times it into
// the step's train.encode.ns observation and, inside TryStep, gives it a
// span on the step's track.
func (e *Executor) retire(n *graph.Node) error {
	if e.probeSparsity && n.Kind() == layers.ReLU {
		// Capture the Figure 14 probe before the output can recycle.
		e.sparsities[n.Name] = e.outs[n.ID].Sparsity()
	}
	if e.tel == nil {
		return e.stashNode(n)
	}
	var sp *telemetry.Span
	if e.stepSpan != nil { // the variadic args would allocate even for a nil span
		sp = e.stepSpan.Begin("train", "retire", telemetry.Str("stash", n.Name))
	}
	t0 := time.Now()
	err := e.stashNode(n)
	e.encodeNS += time.Since(t0).Nanoseconds()
	sp.End()
	return err
}

// stashRest opens Backward: it stashes, in node order, whatever Forward did
// not retire — the sink outputs always; every node after an inference
// Forward or under an enabled fault injector — and closes the step's stash
// accounting. A failure, Forward's or its own, is returned before any
// gradient accumulates; only a complete stash set records a memory sample.
func (e *Executor) stashRest() error {
	err := e.stashErr
	if !e.fwdRetired {
		e.beginStashes()
	}
	for _, n := range e.G.Nodes {
		if err == nil && (!e.fwdRetired || len(n.Consumers()) == 0) {
			err = e.retire(n)
		}
	}
	if e.tel != nil {
		e.met.encodeNS.Observe(e.encodeNS)
		if err == nil {
			e.tel.RecordMemSample(e.mem.sample(e.stepCount))
			e.met.stashHeld.Observe(e.mem.held)
		}
	}
	return err
}

// stashNode carries node n's output across the forward→backward gap — the
// one lifecycle of a stashed feature map: encode into the node's container,
// seal, release the raw output, hand the container to the store, and arm
// the future that will fetch and decode it.
//
// The container is the analysis' assignment when there is one; else a dense
// packing at Options.Format under DelayedReduced (decode∘encode is exactly
// the format's quantization); else an exact FP32 dense packing when the
// store is capped, so the cap covers every byte held. Otherwise nothing is
// encoded and neither codec nor store is touched: the backward view aliases
// the forward output — or, when no backward kernel reads the output and a
// forward consumer has (the "immediately consumed" class), it recycles here.
//
// This is also where the robustness layer lives: injected encode/decode/
// alloc failures surface here as typed errors, and an assigned stash whose
// runtime sparsity fell below break-even degrades to the dense encoding.
// With no injector and integrity off, every added path is a nil/bool check.
func (e *Executor) stashNode(n *graph.Node) error {
	out := e.outs[n.ID]
	inj := e.opts.Faults
	var as *encoding.Assignment
	if e.opts.Encodings != nil {
		as = e.opts.Encodings.ByNode[n.ID]
	}
	stashed := as != nil || stashedForBackward(e, n)
	dense, tech := floatenc.FP32, "FP32"
	switch {
	case as != nil: // the analysis' assignment
	case stashed && e.opts.Mode == DelayedReduced:
		dense, tech = e.opts.Format, "DPR"
	case stashed && e.opts.StashBudget > 0: // exact dense, so the cap covers it
	default: // alias
		if stashed {
			e.StashBytes += out.Bytes()
			e.mem.add(tech, out.Bytes(), out.Bytes())
		}
		if e.bwdReads[n.ID] == 0 && len(n.Consumers()) > 0 {
			e.recycle(out)
		} else {
			e.stash[n.ID] = out
		}
		return nil
	}

	enc := &e.encSlots[n.ID]
	if as != nil {
		if err := inj.FailEncode(n.Name); err != nil {
			e.Robust.EncodeFailures++
			e.met.injEncode.Inc()
			return err
		}
		fellBack, err := e.cdc.EncodeStashAdaptiveInto(enc, as, out)
		if err != nil {
			return fmt.Errorf("train: stash %q: %w", n.Name, err)
		}
		if fellBack {
			e.Robust.SSDCFallbacks++
			e.met.ssdcFallbacks.Inc()
		}
		if err := inj.Alloc(n.Name, enc.Bytes()); err != nil {
			e.Robust.AllocFailures++
			e.met.injAlloc.Inc()
			return err
		}
		if err := inj.FailDecode(n.Name); err != nil {
			e.Robust.DecodeFailures++
			e.met.injDecode.Inc()
			return err
		}
		tech = enc.Tech.String()
	} else {
		e.cdc.EncodeDenseInto(enc, dense, out)
	}
	if e.opts.Integrity || inj.Enabled() {
		// Sealed on request, and always under fault injection so every
		// injected bit flip is detectable.
		e.cdc.Seal(enc)
	}
	inj.CorruptStash(n.Name, enc)
	e.StashBytes += enc.Bytes()
	e.mem.add(tech, out.Bytes(), enc.Bytes())
	// The encoded form now carries the forward→backward gap; the raw output
	// is dead — no backward reader touches it — and returns to the pool,
	// closing the lifetime gap the planner's liveness analysis identifies.
	e.recycle(out)
	if err := e.store.Put(n.ID, enc); err != nil {
		if errors.Is(err, faults.ErrInjected) { // the ENOSPC transient
			e.Robust.SpillWriteFailures++
			e.met.spillWriteErr.Inc()
		}
		return fmt.Errorf("train: stash %q: %w", n.Name, err)
	}
	// The backward pass starts the future one layer before its consumer, and
	// only then does it take a decode target: until that start the stash
	// holds its container and nothing else.
	f := &e.futures[n.ID]
	f.arm()
	e.nFutures++
	if inj.Enabled() {
		// Fault-injected runs resolve the future right here, on this
		// goroutine: the injector's corrupt-then-decode and spill-tamper
		// draws stay in node order, and every detection is attributed to its
		// injection site and surfaces before any gradient accumulates.
		f.started.Store(true)
		f.dst = e.alloc(f.shape)
		f.decode()
		if _, err := e.stashOf(n.ID); err != nil {
			e.noteStashErr(err)
			return err
		}
	}
	return nil
}

// memAccum accumulates one step's stash-memory sample while stashes build.
// It is executor-owned storage, reset per step, so a step with a sink
// allocates no accumulator; without a sink byTech is nil and add discards.
type memAccum struct {
	raw, held int64
	byTech    map[string]telemetry.TechBytes
}

func (m *memAccum) reset() {
	m.raw, m.held = 0, 0
	clear(m.byTech)
}

func (m *memAccum) add(tech string, raw, held int64) {
	if m.byTech == nil {
		return
	}
	m.raw += raw
	m.held += held
	tb := m.byTech[tech]
	tb.Tech = tech
	tb.RawBytes += raw
	tb.HeldBytes += held
	m.byTech[tech] = tb
}

// sample freezes the accumulator into a MemSample with deterministically
// ordered technique rows.
func (m *memAccum) sample(step int) telemetry.MemSample {
	sm := telemetry.MemSample{Step: step, RawBytes: m.raw, HeldBytes: m.held}
	if len(m.byTech) > 0 {
		sm.ByTech = make([]telemetry.TechBytes, 0, len(m.byTech))
	}
	for _, tb := range m.byTech {
		sm.ByTech = append(sm.ByTech, tb)
	}
	slices.SortFunc(sm.ByTech, func(a, b telemetry.TechBytes) int { return strings.Compare(a.Tech, b.Tech) })
	return sm
}

// noteStashErr folds a stash-pipeline failure into the robustness counters:
// CRC-detected in-RAM corruption, or a corrupt/torn spill page caught by
// the GSTP page CRC and bounded parser.
func (e *Executor) noteStashErr(err error) {
	switch {
	case errors.Is(err, encoding.ErrCorruptStash):
		e.Robust.CRCFailures++
		e.met.crcDetected.Inc()
		if chunk, ok := encoding.CorruptedChunk(err); ok {
			e.met.chunkLocated.Inc()
			e.tel.Instant("train", "crc-chunk-located", telemetry.Int("chunk", int64(chunk)))
		}
	case errors.Is(err, stashstore.ErrCorruptPage):
		e.Robust.SpillReadFailures++
		e.met.spillReadErr.Inc()
	}
}

// stashedForBackward reports whether n's output has a backward reader,
// under the encoding analysis when present.
func stashedForBackward(e *Executor, n *graph.Node) bool {
	if e.opts.Encodings != nil {
		return e.opts.Encodings.OutputStashed(n)
	}
	return graph.OutputStashed(n)
}

// doneReading drains one backward read of node id's stash and recycles the
// view once its last reader is done. The ledger makes the
// stash-aliases-output case safe: the shared tensor is returned exactly once.
func (e *Executor) doneReading(id int) {
	e.bwdLeft[id]--
	if t := e.stash[id]; e.bwdLeft[id] == 0 && t != nil {
		e.stash[id] = nil
		e.recycle(t)
	}
}

// Backward runs the backward pass, accumulating parameter gradients. The
// only failures are stash-pipeline ones (injected faults, detected
// corruption, spill I/O — including one that stopped Forward's retirement,
// which is returned first); without an injector or a budget and with
// well-formed encodings it always returns nil.
//
// Each layer's backward kernels overlap the decode of the next layer's
// stashes: the loop starts layer l-1's futures before running layer l's
// compute, then blocks only when a consumer actually needs a tensor still
// in flight. Decode is bit-exact regardless of scheduling, so gradients do
// not depend on the worker count — which the parallel executor tests pin.
//
// Under pooling this is also where the planner's liveness plays out at
// runtime: each stashed tensor recycles when its read count (bwdReads,
// from raw operator needs) drains to zero, each input gradient recycles
// the moment it merges into an existing accumulator, and each node's
// incoming gradient recycles after that node's kernels consume it.
func (e *Executor) Backward() error {
	defer e.drainFutures()
	err := e.stashRest()
	if err != nil {
		return err
	}
	copy(e.bwdLeft, e.bwdReads)
	clear(e.gradOf)
	nodes := e.G.Nodes
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n.Kind() == layers.Input {
			continue
		}
		dOut := e.gradOf[n.ID]
		if dOut == nil {
			if len(n.Consumers()) == 0 {
				// Loss node: its Backward seeds the gradient itself.
				dOut = e.alloc(n.OutShape)
			} else {
				// Dead branch (no gradient flowed): skip.
				continue
			}
		}
		if i > 0 {
			e.prefetch(nodes[i-1])
		}
		needs := n.Op.Needs()
		ins := e.insBuf[:0]
		dIns := e.dInsBuf[:0]
		for _, in := range n.Inputs {
			dIns = append(dIns, e.alloc(in.OutShape))
			var t *tensor.Tensor
			if needs.X {
				t, err = e.stashOf(in.ID)
				if err != nil {
					return e.failBackward(err)
				}
			}
			ins = append(ins, t)
		}
		e.insBuf, e.dInsBuf = ins, dIns
		e.bwdCtx = layers.BwdCtx{
			Params: e.params[n.ID], DOut: dOut,
			DIn: dIns, DParams: e.grads[n.ID], Aux: e.aux[n.ID],
		}
		if needs.X {
			e.bwdCtx.In = ins
		}
		if needs.Y {
			t, err := e.stashOf(n.ID)
			if err != nil {
				return e.failBackward(err)
			}
			e.bwdCtx.Out = t
		}
		n.Op.Backward(&e.bwdCtx)
		for j, in := range n.Inputs {
			if g := e.gradOf[in.ID]; g == nil {
				e.gradOf[in.ID] = dIns[j]
			} else {
				g.Add(dIns[j])
				e.recycle(dIns[j]) // merged: this branch's gradient is dead
			}
		}
		// Drain this node's stash reads and release what went dead.
		if needs.X {
			for _, in := range n.Inputs {
				e.doneReading(in.ID)
			}
		}
		if needs.Y {
			e.doneReading(n.ID)
		}
		// The incoming gradient was fully consumed by this node's kernels.
		e.gradOf[n.ID] = nil
		e.recycle(dOut)
	}
	return nil
}

// prefetch starts the futures node n's backward will need, without waiting
// on them.
func (e *Executor) prefetch(n *graph.Node) {
	if n.Kind() == layers.Input || e.nFutures == 0 {
		return
	}
	needs := n.Op.Needs()
	if needs.X {
		for _, in := range n.Inputs {
			if f := &e.futures[in.ID]; f.armed {
				e.startFuture(f)
			}
		}
	}
	if needs.Y {
		if f := &e.futures[n.ID]; f.armed {
			e.startFuture(f)
		}
	}
}

// stashOf resolves the backward view of a node's output, waiting on its
// future (and caching the decoded tensor) when one is armed.
func (e *Executor) stashOf(id int) (*tensor.Tensor, error) {
	f := &e.futures[id]
	if !f.armed {
		return e.stash[id], nil
	}
	if e.tel != nil {
		// Overlap accounting: a hit means the decode had already resolved
		// when its consumer arrived; a miss means the consumer had to wait
		// on (or itself start) the decode.
		if f.settled.Load() {
			e.met.overlapHits.Inc()
		} else {
			e.met.overlapMiss.Inc()
		}
	}
	e.startFuture(f)
	f.wg.Wait()
	f.armed = false
	e.nFutures--
	if f.err != nil {
		return nil, fmt.Errorf("train: stash %q: %w", f.node, f.err)
	}
	e.stash[id] = f.dst
	return f.dst, nil
}

// failBackward preserves TryStep's no-partial-update contract when a stash
// failure surfaces mid-pass: backward kernels accumulate into e.grads
// directly, so every gradient is zeroed before the error propagates.
// Pooled tensors stranded by the abort are swept at the next Forward.
func (e *Executor) failBackward(err error) error {
	e.noteStashErr(err)
	e.met.gradZero.Inc()
	e.tel.Instant("train", "grad-zeroing", telemetry.Str("cause", err.Error()))
	e.zeroGrads()
	return err
}

// zeroGrads discards every accumulated parameter gradient.
func (e *Executor) zeroGrads() {
	for _, gs := range e.grads {
		for _, g := range gs {
			g.Zero()
		}
	}
}

// drainFutures settles every armed future: started decodes are waited for
// (so no goroutine from this pass outlives Backward), and futures that
// never launched have their WaitGroup count balanced. Runs on the
// executor's goroutine only; idempotent, and re-run at Forward and Close for
// the futures a training Forward armed when its Backward never ran (a step
// cancelled in between). A future that never launched owns no decode target.
func (e *Executor) drainFutures() {
	if e.nFutures == 0 {
		return
	}
	for i := range e.futures {
		f := &e.futures[i]
		if !f.armed {
			continue
		}
		if f.started.Load() {
			f.wg.Wait()
		} else {
			f.wg.Done() // balance arm's Add; the decode never launched
		}
		f.armed = false
	}
	e.nFutures = 0
}

// ClipGradNorm rescales all parameter gradients so their global L2 norm is
// at most maxNorm, the standard guard against the exploding gradients that
// plain SGD on deeper ReLU stacks invites. The squared norm accumulates in
// graph-node order: float addition is not associative, so a map-order walk
// would make the clip scale (and therefore the updated weights) vary
// run-to-run — and diverge across the replicas of a ReplicaGroup, which
// rely on every replica computing the identical update from the identical
// merged gradient.
func (e *Executor) ClipGradNorm(maxNorm float64) {
	var sumSq float64
	for _, n := range e.G.Nodes {
		for _, g := range e.grads[n.ID] {
			for _, v := range g.Data {
				sumSq += float64(v) * float64(v)
			}
		}
	}
	norm := math.Sqrt(sumSq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := float32(maxNorm / norm)
	for _, n := range e.G.Nodes {
		for _, g := range e.grads[n.ID] {
			g.Scale(scale)
		}
	}
}

// SGD applies one momentum-SGD update and zeroes the gradients.
func (e *Executor) SGD(lr, momentum, weightDecay float32) {
	for id, ps := range e.params {
		gs, ms := e.grads[id], e.moms[id]
		for i, p := range ps {
			g, m := gs[i], ms[i]
			for k := range p.Data {
				grad := g.Data[k] + weightDecay*p.Data[k]
				m.Data[k] = momentum*m.Data[k] + grad
				p.Data[k] -= lr * m.Data[k]
			}
			g.Zero()
		}
	}
}

// lossNode returns the graph's softmax cross-entropy node. It panics if
// there is none: the trainer only drives classification graphs.
func (e *Executor) lossNode() *graph.Node {
	for _, n := range e.G.Nodes {
		if n.Kind() == layers.SoftmaxXent {
			return n
		}
	}
	panic("train: graph has no SoftmaxXent loss node")
}

// TryStep runs forward, backward and an SGD update on one minibatch,
// returning the minibatch loss, top-1 error count and any stash-pipeline
// error. On error no parameter update has been applied: failures surface
// when Backward opens (a retirement that failed in Forward, or the stashing
// Backward does itself — every fault-injected failure — before gradients
// accumulate) or mid-backward, when a future reports a corrupt or
// unreadable stash — where every partially accumulated gradient is zeroed
// before the error returns. Batch-norm running statistics and the dropout
// RNG have still advanced — restore a Snapshot before retrying for a
// bit-exact replay. Fault-injected runs must use TryStep
// (or RunRecoverable, which wraps it with snapshot/retry/backoff).
func (e *Executor) TryStep(input *tensor.Tensor, labels []int, lr float32) (loss float64, errs int, err error) {
	if cerr := e.ctxErr(); cerr != nil {
		return 0, 0, fmt.Errorf("train: step not started: %w", cerr)
	}
	e.stepCount++
	instrumented := e.tel != nil
	var start time.Time
	if instrumented {
		start = time.Now()
		e.stepSpan = e.tel.Begin("train", "step", telemetry.Int("step", int64(e.stepCount)))
		defer func() {
			e.met.steps.Inc()
			if err != nil {
				e.met.stepFailures.Inc()
			}
			e.met.stepNS.Observe(time.Since(start).Nanoseconds())
			e.stepSpan.End()
			e.stepSpan = nil
		}()
	}

	fwd := e.stepSpan.Begin("train", "forward")
	var t time.Time
	if instrumented {
		t = time.Now()
	}
	e.Forward(input, labels, true)
	if instrumented {
		e.met.forwardNS.Observe(time.Since(t).Nanoseconds())
	}
	fwd.End()
	loss, errs = e.lossOf(labels)
	if cerr := e.ctxErr(); cerr != nil {
		// Aborting between forward and backward: no gradient has
		// accumulated and no update has been applied. The futures Forward's
		// retirements armed and the pooled tensors it left checked out are
		// drained and swept at the next Forward or by Close.
		return loss, errs, fmt.Errorf("train: step canceled after forward: %w", cerr)
	}

	bwd := e.stepSpan.Begin("train", "backward")
	if instrumented {
		t = time.Now()
	}
	berr := e.Backward()
	if instrumented {
		e.met.backwardNS.Observe(time.Since(t).Nanoseconds())
	}
	bwd.End()
	if berr != nil {
		return loss, errs, berr
	}
	if cerr := e.ctxErr(); cerr != nil {
		// Aborting between backward and SGD: gradients have accumulated
		// but the parameters are untouched — zero the gradients so the
		// no-partial-update contract holds for a later retry or resume.
		e.zeroGrads()
		return loss, errs, fmt.Errorf("train: step canceled after backward: %w", cerr)
	}

	sgd := e.stepSpan.Begin("train", "sgd")
	if instrumented {
		t = time.Now()
	}
	e.ClipGradNorm(5)
	e.SGD(lr, 0.9, 1e-4)
	if instrumented {
		e.met.sgdNS.Observe(time.Since(t).Nanoseconds())
	}
	sgd.End()
	return loss, errs, nil
}

// Telemetry returns the sink the executor reports to (nil when
// uninstrumented).
func (e *Executor) Telemetry() *telemetry.Sink { return e.tel }

// BufferPool returns the buffer pool this executor recycles through (nil
// on the allocate-always path).
func (e *Executor) BufferPool() *bufpool.Pool { return e.pool }

// SetSparsityProbe arms (or disarms) per-step capture of ReLU output
// sparsities at retirement, before the outputs can recycle — what
// ReLUSparsities reports. The run loops arm it when
// RunConfig.ProbeSparsity is set. The capture costs one pass over each ReLU
// output per step, so it is off by default.
func (e *Executor) SetSparsityProbe(on bool) { e.probeSparsity = on }

// Step runs forward, backward and an SGD update on one minibatch and
// returns the minibatch loss and top-1 error count. Without fault
// injection the stash pipeline cannot fail; Step panics if it somehow does
// (use TryStep to handle failures).
func (e *Executor) Step(input *tensor.Tensor, labels []int, lr float32) (loss float64, errors int) {
	loss, errors, err := e.TryStep(input, labels, lr)
	if err != nil {
		panic(fmt.Sprintf("train: Step under fault injection must use TryStep: %v", err))
	}
	return loss, errors
}

// ReLUSparsities returns the zero fraction of every ReLU output, keyed by
// node name — the Figure 14 probe — as captured when the latest training
// step retired them. Empty unless SetSparsityProbe armed the capture.
func (e *Executor) ReLUSparsities() map[string]float64 {
	return maps.Clone(e.sparsities)
}
