// Package train executes graphs for real: it allocates tensors, runs every
// operator's forward and backward kernels, applies SGD, and reproduces the
// numerical behaviour of Gist's encodings inside the training loop. The
// paper's accuracy experiment (Figure 12) is this package's reason to
// exist: the executor can quantize activations immediately after each layer
// (Options.ForwardFormat, the conventional "All-FP16" scheme whose forward
// error compounds), or carry out an encoding analysis (Options.Encodings)
// by round-tripping each assigned stash through the real encoders. Gist's
// delayed reduction is such an analysis — encoding.Analyze with a DPR
// format — so its forward pass stays exact. A stash is encoded iff it has
// an assignment; every other stash aliases its forward output.
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

	"gist/internal/bitpack"
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

// Options configures an executor.
type Options struct {
	// ForwardFormat, when not FP32 (the zero value, an exact forward pass),
	// quantizes every layer output but the loss to this format right after
	// it is computed: the conventional All-Reduced scheme (the paper's
	// "All-FP16"), whose forward error compounds with depth. Gist's delayed
	// reduction is not an option here but an analysis — Encodings from
	// encoding.Analyze with a DPR format — that packs only stashed copies.
	ForwardFormat floatenc.Format
	// Encodings is the analysis the executor carries out: every stash it
	// assigns round-trips through the real encoder kernels (ZVC, packed
	// DPR), or, a Binarize mask, is read as stored by its ReLU; every other
	// stash aliases its forward output. Backward runs on its effective
	// needs. Nil carries the empty analysis (encoding.Config{}), which
	// assigns nothing and rewrites no need.
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
	// decodes stashes through — its own worker pool, chunk size and
	// telemetry, isolated from every other executor. Nil selects the
	// process-wide default codec as it stands when NewExecutor runs; either
	// way the codec is fixed for the executor's lifetime.
	Codec *encoding.Codec
	// Pool, when non-nil, turns on the step arena: every per-step tensor
	// (activation, gradient, decode target) is a view of one slab, accounted
	// in this pool, laid out from a recorded step so that a buffer freed at
	// its last use — a feature map no backward kernel reads right after its
	// last forward consumer ran, the FP32 form of an encoded one once its
	// encode has settled, one retirement later; a decode target from the
	// start of its fetch to its final backward reader; stashed activations
	// after that reader; gradients once merged downstream — serves a later
	// buffer, and steady-state training allocates nothing. No step takes
	// from the pool's free lists. Nil means heap allocation: recycling is a
	// no-op and every node's Output stays valid after the step, which the
	// benchmark's per-layer probes rely on (a replayed step re-shapes the
	// views it hands out). The step path and its results are the same
	// either way.
	Pool *bufpool.Pool
	// StashBudget, when positive, caps the bytes the executor's
	// stashstore.Store holds in RAM across the forward→backward gap: the
	// stashes whose backward use is furthest away spill to disk as sealed
	// GSTP pages and are read back by their fetch-then-decode futures.
	// Under a cap every stash is encoded (one the analysis left unassigned
	// is DPR-packed at FP32, exactly) so the cap covers every byte held.
	// Placement is a pure function of the liveness analysis and the spill
	// round trip is bit-exact, so results are identical at any budget.
	// Zero (the default) means no cap and no spill file.
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
	encodeNS     *telemetry.Histogram // the step's stash work on the executor's goroutine, summed (launch + wait + put + arm)
	backwardNS   *telemetry.Histogram
	sgdNS        *telemetry.Histogram
	stashHeld    *telemetry.Histogram // per-step held stash bytes

	overlapHits    *telemetry.Counter // decode future already resolved at use
	overlapMiss    *telemetry.Counter // consumer had to wait on (or start) the decode
	encOverlapHits *telemetry.Counter // encode future already resolved when settled
	encOverlapMiss *telemetry.Counter // settling had to wait on the encode
	gradZero       *telemetry.Counter // mid-backward failures that zeroed gradients

	// Mirrors of RobustnessStats, so the sink and the RecoveryReport
	// agree by construction.
	sparseFallbacks *telemetry.Counter
	crcDetected     *telemetry.Counter
	chunkLocated    *telemetry.Counter // CRC detections localized to one chunk
	injEncode       *telemetry.Counter
	injDecode       *telemetry.Counter
	injAlloc        *telemetry.Counter
	spillWriteErr   *telemetry.Counter // failed spill-page writes (injected ENOSPC)
	spillReadErr    *telemetry.Counter // corrupt/torn spill pages caught at fetch
}

func newExecMetrics(s *telemetry.Sink) execMetrics {
	return execMetrics{
		steps:           s.Counter("train.steps"),
		stepFailures:    s.Counter("train.step.failures"),
		stepNS:          s.Histogram("train.step.ns"),
		forwardNS:       s.Histogram("train.forward.ns"),
		encodeNS:        s.Histogram("train.encode.ns"),
		backwardNS:      s.Histogram("train.backward.ns"),
		sgdNS:           s.Histogram("train.sgd.ns"),
		stashHeld:       s.Histogram("train.stash.held_bytes"),
		overlapHits:     s.Counter("train.overlap.hits"),
		overlapMiss:     s.Counter("train.overlap.misses"),
		encOverlapHits:  s.Counter("train.encode_overlap.hits"),
		encOverlapMiss:  s.Counter("train.encode_overlap.misses"),
		gradZero:        s.Counter("train.grad_zeroing"),
		sparseFallbacks: s.Counter("train.ssdc_fallbacks"),
		crcDetected:     s.Counter("train.crc_detected"),
		chunkLocated:    s.Counter("train.crc.chunk_located"),
		injEncode:       s.Counter("train.injected.encode_failures"),
		injDecode:       s.Counter("train.injected.decode_failures"),
		injAlloc:        s.Counter("train.injected.alloc_failures"),
		spillWriteErr:   s.Counter("train.spill.write_failures"),
		spillReadErr:    s.Counter("train.spill.read_failures"),
	}
}

// RobustnessStats counts the degradation and corruption events one
// executor observed — the per-run robustness counters the RecoveryReport
// aggregates and cross-checks against the injector's log.
type RobustnessStats struct {
	// SparseFallbacks counts stashes whose runtime zeros left their planned
	// ZVC form no smaller than dense DPR, which they were rebuilt as. The
	// sink's counter keeps its older name, train.ssdc_fallbacks.
	SparseFallbacks int64
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

	// The trainable state is three flats of equal length — parameters,
	// their gradients and their momenta — laid out in graph-node order,
	// then parameter order. params, grads and moms hold, per node ID, that
	// node's tensors as views into them, so the update, the clip, a
	// snapshot and the replica exchange each run over one flat. A replica
	// of a ReplicaGroup (viewsLead) owns only its gradient flat: its
	// params and moms are the lead executor's own views, which the lead
	// alone updates, snapshots and restores.
	paramFlat, gradFlat, momFlat []float32
	params, grads, moms          [][]*tensor.Tensor
	viewsLead                    bool
	rng                          *tensor.RNG

	// Per-step state, indexed by node ID (graph.Validate guarantees IDs
	// are dense). outs holds each node's forward output for the current
	// step; stash holds the view backward readers see — the output itself
	// for an aliased stash, else the decoded tensor once the node's future
	// has been resolved. All slices are allocated once and reused every
	// step.
	outs  []*tensor.Tensor
	stash []*tensor.Tensor
	aux   []map[string]any

	// assign holds, per node, the assignment its stash is encoded by — nil
	// for a stash that aliases its forward output. futures holds one
	// persistent slot per node, used each step first for the stash's encode
	// and then for its fetch-then-decode, and encSlots one persistent encode
	// container per node, rebuilt in place each step — so the stash
	// lifecycle allocates nothing per step. nFutures counts the slots
	// currently armed for decode; inFlight lists, in retirement order, the
	// retired nodes whose encode has not been settled yet.
	assign   []*encoding.Assignment
	futures  []stashFuture
	nFutures int
	encSlots []encoding.EncodedStash
	inFlight []*graph.Node

	// retireAt[i] lists, in node order, the nodes whose output's last
	// forward reader is forward step i (graph.LastForwardUse) — Gist's
	// "right after its last forward use". A training Forward retires them
	// there; sink outputs are absent (the loss is read after Forward) and
	// are stashed when Backward opens. fwdRetired says whether the latest
	// Forward did so; stashErr holds the failure that stopped it, for
	// Backward to return.
	retireAt   [][]*graph.Node
	fwdRetired bool
	stashErr   error

	// fkey keys the injector's draws for the attempt in flight; tries
	// counts each shard's attempts at fkey.Step (beginAttempt).
	fkey  faults.Key
	tries []int

	// arena serves every per-step tensor when pooling is on (nil on the
	// allocate-always path). Every recycle point goes through recycle(),
	// which ignores tensors the pass does not hold — so an aliased stash
	// (stash == out) is returned exactly once — and anything a failed step
	// leaves behind is released when the next Forward opens a pass.
	arena *stepArena

	// needs holds, per node, the stashes its backward kernel reads at
	// runtime: the encoding analysis' effective needs — a MaxPool Binarize
	// rewrote reads only its argmax map, a Binarize ReLU its mask; the raw
	// Op.Needs() under the empty analysis. bwdReads is the static per-node
	// count of backward reads of each node's stashed output under them (the
	// consumers' X reads plus the node's own Y read) — the executor-level
	// liveness the recycler drains. bwdLeft is the per-pass remaining
	// count; gradOf accumulates downstream gradients. An output with no
	// backward read at all is the paper's "immediately consumed" class: it
	// recycles at retirement.
	needs    []layers.BackwardNeeds
	bwdReads []int
	bwdLeft  []int
	gradOf   []*tensor.Tensor

	// Inplace computation, as the analysis' Config.Inplace plans it:
	// inplaceY[i] says node i (a ReLU, graph.InplaceEligible) writes its
	// output into its input's buffer, and lent[i] that node i's buffer was
	// so taken, so its retirement recycles nothing; inplaceDX[i] says node
	// i's backward (a ReLU, graph.GradInplaceEligible) writes its input's
	// gradient into its own incoming gradient's buffer, which then lives on
	// as that gradient.
	inplaceY, inplaceDX, lent []bool

	// bwdOrder lists the encoded stashes backward reads, in first-read
	// order, from the same needs as bwdReads; bwdFirst holds each one's
	// first reader (an index into G.Nodes), and each future's pos its index
	// here. In a pass, the first reached entries are behind it and the
	// first started have been started (fillWindow).
	bwdOrder, bwdFirst []int
	reached, started   int

	// encoders run the encodes, as many as the codec pool has workers;
	// decoder, one worker, runs the fetch-then-decodes in start order.
	encoders, decoder stashWorkers

	// Reusable per-node scratch for forward/backward input and gradient
	// slices and the kernel contexts.
	insBuf  []*tensor.Tensor
	dInsBuf []*tensor.Tensor
	fwdCtx  layers.FwdCtx
	bwdCtx  layers.BwdCtx

	// probeSparsity arms per-step ReLU sparsity capture (set by the run
	// loop for the duration of a run whose RunConfig.ProbeSparsity asks for
	// the Figure 14 probe); sparsities holds the last captured values, and
	// stashSparsities those of the assigned stashes, as their formats
	// quantize them.
	probeSparsity   bool
	sparsities      map[string]float64
	stashSparsities map[int]float64

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
func NewExecutor(g *graph.Graph, opts Options) *Executor { return newExecutor(g, opts, nil) }

// newExecutor builds an executor over g. Given a lead, g is a clone of the
// lead's graph and the executor trains the lead's model: it carries the
// lead's analysis and its parameters and momenta are the lead's, so it
// allocates and initializes no weight.
func newExecutor(g *graph.Graph, opts Options, lead *Executor) *Executor {
	switch {
	case lead != nil:
		opts.Encodings = lead.opts.Encodings
	case opts.Encodings == nil:
		opts.Encodings = encoding.Analyze(g, encoding.Config{})
	}
	e := &Executor{
		G: g, opts: opts,
		rng: tensor.NewRNG(opts.Seed),
		tel: opts.Telemetry,
		met: newExecMetrics(opts.Telemetry),
	}
	opts.Faults.SetTelemetry(opts.Telemetry)

	e.cdc = encoding.DefaultCodec()
	if opts.Codec != nil {
		e.cdc = *opts.Codec
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
	e.assign = make([]*encoding.Assignment, nn)
	e.futures = make([]stashFuture, nn)
	e.encSlots = make([]encoding.EncodedStash, nn)
	e.aux = make([]map[string]any, nn)
	e.needs = make([]layers.BackwardNeeds, nn)
	e.bwdReads = make([]int, nn)
	e.bwdLeft = make([]int, nn)
	e.gradOf = make([]*tensor.Tensor, nn)
	e.inplaceY, e.inplaceDX, e.lent = make([]bool, nn), make([]bool, nn), make([]bool, nn)
	e.encoders = stashWorkers{job: (*stashFuture).encode, depth: nn}
	e.decoder = stashWorkers{job: (*stashFuture).decode, depth: nn}
	e.sparsities = map[string]float64{}
	e.stashSparsities = map[int]float64{}
	if e.tel != nil {
		e.mem.byTech = map[string]telemetry.TechBytes{}
	}
	if opts.Pool != nil {
		e.arena = newStepArena(opts.Pool)
	}
	for _, n := range g.Nodes {
		f := &e.futures[n.ID]
		f.store, f.cdc, f.tel, f.sid, f.pos, f.node, f.shape = e.store, e.cdc, e.tel, n.ID, -1, n.Name, n.OutShape
		f.enc, f.seal = &e.encSlots[n.ID], opts.Integrity || opts.Faults.Enabled()
		e.aux[n.ID] = map[string]any{}
		e.assign[n.ID] = opts.Encodings.ByNode[n.ID]
		if e.assign[n.ID] == nil && opts.StashBudget > 0 && opts.Encodings.OutputStashed(n) {
			// Under a cap every stash is held in the store, so the cap
			// covers every byte: an unassigned one is packed exactly.
			e.assign[n.ID] = &encoding.Assignment{Node: n, Tech: encoding.DPR,
				Format: floatenc.FP32, EncodedBytes: n.OutShape.Bytes(), NeedsDecode: true}
		}
		if f.asStored = e.assign[n.ID] != nil && !e.assign[n.ID].NeedsDecode; f.asStored {
			f.stored = new(encoding.StoredStash)
		}
		// A Binarize ReLU's Y need, which the analysis drops because the
		// mask serves it, is a read of that container as stored.
		needs := opts.Encodings.EffectiveNeeds(n)
		needs.Y = needs.Y || (f.asStored && e.assign[n.ID].Tech == encoding.Binarize)
		f.ownY = needs.Y
		e.needs[n.ID] = needs
		if opts.Encodings.Config.Inplace {
			e.inplaceY[n.ID], e.inplaceDX[n.ID] = graph.InplaceEligible(n), graph.GradInplaceEligible(n)
			if e.inplaceY[n.ID] {
				e.lent[n.Inputs[0].ID] = true
			}
		}
		// Count the backward pass's reads of this node's stashed output;
		// recycle points drain these counts.
		if needs.Y {
			e.bwdReads[n.ID]++
		}
		if needs.X {
			for _, in := range n.Inputs {
				e.bwdReads[in.ID]++
			}
		}
	}
	e.compileDecodeOrder()
	e.initState(lead)
	return e
}

// initState lays out the trainable state's three flats and initializes the
// parameters in node order. Given a lead, it lays out the gradient flat
// only and takes the lead's parameter and momentum views. Every view it
// lays out comes from three slabs: the tensors, their cloned dims, and the
// pointers that back each node's slice of views.
func (e *Executor) initState(lead *Executor) {
	nn := len(e.G.Nodes)
	size, count, dims := 0, 0, 0
	for _, n := range e.G.Nodes {
		for _, shape := range n.ParamShapes {
			size += shape.NumElements()
			dims += len(shape)
		}
		count += len(n.ParamShapes)
	}
	kinds := 3 // parameters, gradients, momenta
	e.gradFlat, e.grads = make([]float32, size), make([][]*tensor.Tensor, nn)
	if lead != nil {
		e.paramFlat, e.momFlat, e.params, e.moms, e.viewsLead = lead.paramFlat, lead.momFlat, lead.params, lead.moms, true
		kinds = 1
	} else {
		e.paramFlat, e.momFlat = make([]float32, size), make([]float32, size)
		e.params, e.moms = make([][]*tensor.Tensor, nn), make([][]*tensor.Tensor, nn)
	}
	views, dimSlab, ptrs := make([]tensor.Tensor, kinds*count), make([]int, kinds*dims), make([]*tensor.Tensor, kinds*count)
	// take returns the next k view pointers, capped so an append cannot
	// reach the next node's.
	take := func(k int) []*tensor.Tensor {
		v := ptrs[:k:k]
		ptrs = ptrs[k:]
		return v
	}
	off := 0
	for _, n := range e.G.Nodes {
		k := len(n.ParamShapes)
		if k == 0 {
			continue
		}
		e.grads[n.ID] = take(k)
		if lead == nil {
			e.params[n.ID], e.moms[n.ID] = take(k), take(k)
		}
		for i, shape := range n.ParamShapes {
			elems, d := shape.NumElements(), len(shape)
			view := func(flat []float32) *tensor.Tensor {
				t := &views[0]
				t.Shape, t.Data = dimSlab[:d:d], flat[off:off+elems:off+elems]
				copy(t.Shape, shape)
				views, dimSlab = views[1:], dimSlab[d:]
				return t
			}
			e.grads[n.ID][i] = view(e.gradFlat)
			if lead == nil {
				p := view(e.paramFlat)
				e.params[n.ID][i], e.moms[n.ID][i] = p, view(e.momFlat)
				switch {
				case n.Kind() == layers.BatchNorm && i == 0:
					p.Fill(1) // gamma
				case n.Kind() == layers.BatchNorm && i == 1:
					// beta stays zero
				case i == 0:
					p.FillHe(e.rng, elems/shape[0])
				}
			}
			off += elems
		}
	}
}

// alloc returns a zeroed tensor of the given shape — from the step arena
// when pooling is on, from the heap otherwise.
func (e *Executor) alloc(shape tensor.Shape) *tensor.Tensor {
	if e.arena == nil {
		return tensor.New(shape...)
	}
	return e.arena.alloc(shape)
}

// recycle ends a tensor's use at its last reader (a no-op on the heap
// path); see stepArena.recycle for what it ignores.
func (e *Executor) recycle(t *tensor.Tensor) {
	if e.arena != nil {
		e.arena.recycle(t)
	}
}

// completePass tells the arena the pass in flight ran whole — a training
// step through Backward, or an inference Forward — so a recording of it
// becomes its kind's layout.
func (e *Executor) completePass() {
	if e.arena != nil {
		e.arena.complete()
	}
}

// ArenaStats returns the step arena's counters (bufpool.Arena.Stats): the
// slab held and in view, the bytes requested and their peak, views served
// (hits) and heap allocations made instead (misses). The zero Stats on the
// heap path.
func (e *Executor) ArenaStats() bufpool.Stats {
	if e.arena == nil {
		return bufpool.Stats{}
	}
	return e.arena.mem.Stats()
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

// Close promptly releases every pooled buffer the executor still holds —
// in-flight encodes are waited for and decode futures drained first, the
// encode and decode workers stopped, then the arena's pass is ended and its
// slab dropped — and drops every per-step tensor reference it keeps; until
// Close, an executor that has encoded or decoded keeps those workers parked
// (a later step starts them again). This is the deterministic
// release point a job server needs when a job is cancelled, paused or
// quarantined: after Close the pool accounts no byte of this executor's
// (Stats().InUseBytes and HeldBytes from it are zero) without waiting for a
// next Forward. A later step replays the recorded layout into a new slab.
// Must run on the executor's goroutine (not concurrent with a step); safe
// to call repeatedly and on an unpooled executor (where it only drops
// references).
func (e *Executor) Close() {
	e.drainFutures() // every future is settled: the workers are idle
	e.encoders.stop()
	e.decoder.stop()
	if e.arena != nil {
		e.arena.release()
	}
	clear(e.outs)
	clear(e.stash)
	clear(e.gradOf)
	e.insBuf = clearAll(e.insBuf)
	e.dInsBuf = clearAll(e.dInsBuf)
	e.fwdCtx, e.bwdCtx = layers.FwdCtx{}, layers.BwdCtx{}
	for i := range e.futures {
		e.futures[i].src, e.futures[i].dst = nil, nil
	}
	// Drop the store's contents and delete its spill file, if any. The store
	// stays usable (a later step lazily recreates the file), preserving this
	// method's safe-to-call-repeatedly contract.
	_ = e.store.Close()
}

// clearAll drops every pointer in s's backing array and returns it empty.
func clearAll(s []*tensor.Tensor) []*tensor.Tensor {
	clear(s[:cap(s)])
	return s[:0]
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
// which the harnesses that read per-layer activations after training rely
// on — the reason the heap path exists. Under pooling only the sink outputs
// and the outputs a backward kernel reads unencoded outlive a training
// Forward: a recycled output's region of the slab serves a later buffer,
// and on the step that records the layout its data is dropped. A node whose
// buffer an inplace ReLU took (graph.InplaceEligible, under the analysis'
// Inplace) returns that shared tensor, which holds the ReLU's output.
func (e *Executor) Output(n *graph.Node) *tensor.Tensor { return e.outs[n.ID] }

// Forward runs the forward pass on the given minibatch. Labels are needed
// only when the graph ends in a loss node and Backward will run.
//
// A training Forward executes Gist's schedule as it goes. An encoded
// output's encode is launched right after its producing kernel, on the
// executor's encode workers, so it reads the map beside the forward kernels
// that consume it. Once node i's kernel has run, every output whose last
// forward reader was node i is retired (retireAt) — queued for its settle,
// or the output simply recycled when no backward kernel reads it — so the
// arena's forward peak is the planner's, not the sum of every map. An
// encode is settled (its sealed container handed to the store, its raw
// output recycled) as soon as the next encoded stash has retired, in
// retirement order: one raw map lives past its retirement, and Forward
// returns with every encode settled or, past a failed settle, waited for.
// An inference Forward launches and retires nothing: Backward then stashes
// every node in node order.
//
// A training Forward whose input stash is encoded, with no ForwardFormat
// and no inplace ReLU to write over it, reads input in place: the graph
// input's output is the caller's tensor, which must not change until
// Forward returns and which nothing reads after, because the input's
// encode settles before then. Every other pass reads a copy of it.
func (e *Executor) Forward(input *tensor.Tensor, labels []int, training bool) {
	e.drainFutures() // settle anything a failed previous step left in flight
	if e.arena != nil {
		e.arena.begin(training) // nothing from the previous pass can be referenced anymore
	}
	clear(e.stash)
	e.stashErr = nil
	e.fwdRetired = training
	if e.fwdRetired {
		e.beginStashes()
	}
	for i, n := range e.G.Nodes {
		var out *tensor.Tensor
		switch {
		case e.inplaceY[n.ID]:
			out = e.outs[n.Inputs[0].ID] // ReLU reads each x before it writes its y
		case n.Kind() == layers.Input && training && e.assign[n.ID] != nil && !e.lent[n.ID] &&
			e.opts.ForwardFormat == floatenc.FP32:
			out = input // read in place: its encode settles before Forward returns
		default:
			out = e.alloc(n.OutShape)
		}
		aux := e.aux[n.ID]
		if n.Kind() == layers.Input {
			if !input.Shape.Equal(n.OutShape) {
				panic(fmt.Sprintf("train: input shape %v, want %v", input.Shape, n.OutShape))
			}
			if out != input {
				copy(out.Data, input.Data)
			}
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
		if e.opts.ForwardFormat != floatenc.FP32 && n.Kind() != layers.SoftmaxXent {
			// Conventional scheme: inject quantization error immediately,
			// so every downstream layer consumes reduced values. The loss
			// layer itself stays exact (prior-work schemes quantize layer
			// activations, not the loss).
			floatenc.QuantizeSlice(e.opts.ForwardFormat, out.Data)
		}
		e.outs[n.ID] = out
		if e.fwdRetired {
			if e.stashErr == nil {
				// A sink's encode waits for Backward, which retires it.
				if e.assign[n.ID] != nil && len(n.Consumers()) > 0 {
					e.launchEncode(n)
				}
				for _, r := range e.retireAt[i] {
					e.retire(r)
				}
			}
			// Every retired encode but the newest settles. A failure among
			// them stops launching and retirement: Backward returns it, and
			// what is left unretired is swept.
			e.settleEncodes(1)
		}
	}
	e.settleEncodes(0)
	e.waitEncodes() // the stashes a failed settle left unretired
	if !training {
		e.completePass()
	}
}

// stashFuture carries one encoded stash's two asynchronous jobs, one after
// the other in each step.
//
// The encode: a training Forward launches it (launchEncode) right after the
// producing kernel — Backward's retirement, for a sink or after an inference
// Forward — on the executor's encode workers, holding a codec worker slot, to
// encode the raw forward output src into the node's container enc and seal
// it while the executor runs the forward kernels, the map's consumers among
// them; settleEncodes waits for it and does everything else on the
// executor's goroutine, in retirement order — the fault draws, the store's
// Put, recycling src — so what a step stores, evicts and draws never depends
// on timing. The encode reads src and writes enc, nothing else.
//
// The fetch-then-decode: it pulls the stash back from the store (a pointer
// hand-off on a hot hit, a page read + CRC-verified parse on a spilled miss)
// and decodes it into dst, on the executor's decode worker. A
// stash read as stored (asStored) is fetched the same way and opened, not
// decoded whole: its kernels read the container through the one reader.
// The backward pass starts futures through a window over the stashes in
// first-use order (fillWindow), so the next decodes overlap the backward
// kernels ahead of their consumers inside the codec's worker budget. Start
// is idempotent: a consumer that arrives before the window reached its
// future starts the work itself and waits.
//
// Slots are persistent (one per node) and re-armed each step. Ownership of
// the decode target dst transfers explicitly: the executor takes it from the
// arena serially when it starts the future (startFuture) — not at arm time,
// so an armed stash holds no FP32 bytes while it waits, and never for a
// stash read as stored — exactly one goroutine writes it, and it returns to
// the executor when the future is resolved. The arena is never touched off
// the executor's goroutine.
type stashFuture struct {
	// Bound once at executor construction.
	store    *stashstore.Store
	cdc      encoding.Codec
	tel      *telemetry.Sink
	sid      int // node ID keying the store entry
	pos      int // index in Executor.bwdOrder; -1 when backward never reads it
	node     string
	shape    tensor.Shape           // of the decode target: the node's output shape
	enc      *encoding.EncodedStash // the node's container (Executor.encSlots)
	seal     bool                   // Options.Integrity, or an enabled injector
	asStored bool                   // its assignment's NeedsDecode is false: the kernels read the container
	ownY     bool                   // the node's own backward reads its output (a ReLU)

	// Per-encode state, set by launchEncode. encoding (read and written on
	// the executor's goroutine only) says the encode is launched and not yet
	// waited for.
	src      *tensor.Tensor
	as       *encoding.Assignment
	fellBack bool
	encoding bool

	// Per-step decode state, reset by arm. A resolved future holds its
	// decoded tensor in dst, or, read as stored, its opened reader in
	// stored (allocated once, for these futures only) and, for the ReLU
	// that produced the map, the mask its backward gates through: the
	// Binarize or ZVC mask as stored, or else the sign mask signs, built
	// from the container and kept across steps.
	armed   bool
	dst     *tensor.Tensor
	mask    *bitpack.BitMask
	stored  *encoding.StoredStash
	signs   *bitpack.BitMask
	started atomic.Bool
	settled atomic.Bool // the job in flight finished (overlap accounting)
	wg      sync.WaitGroup
	err     error
}

// encode builds the sealed container. It touches no executor state and
// draws no fault: a stash the executor then fails to store is simply never
// Put.
func (f *stashFuture) encode() {
	defer f.wg.Done()
	defer f.settled.Store(true)
	defer f.recoverInto()
	if f.tel != nil {
		sp := f.asyncSpan("async-encode")
		defer sp.End()
	}
	f.fellBack, f.err = f.cdc.EncodeStashAdaptiveInto(f.enc, f.as, f.src)
	if f.err == nil && f.seal {
		// Sealed on request, and always under fault injection so every
		// injected bit flip is detectable.
		f.cdc.Seal(f.enc)
	}
}

// recoverInto turns a panic on a future's goroutine, which would kill the
// process, into the future's error.
func (f *stashFuture) recoverInto() {
	if r := recover(); r != nil {
		f.err = fmt.Errorf("stash future panicked: %v", r)
	}
}

// asyncSpan opens a root span on its own track, so the trace shows the
// future beside the step. Its argument is built only under tracing — an
// observer takes spans without arguments, and a variadic argument allocates
// per call.
func (f *stashFuture) asyncSpan(name string) *telemetry.Span {
	if f.tel.TracingEnabled() {
		return f.tel.Begin("train", name, telemetry.Str("stash", f.node))
	}
	return f.tel.Begin("train", name)
}

// arm readies the slot for this step's decode. It owns no target yet: a
// decode that somehow launched without one would fail on the nil dst instead
// of scribbling on last step's recycled buffer. The WaitGroup count is taken
// here, on the executor's goroutine, before any start — drainFutures
// launches the decode if no consumer did.
func (f *stashFuture) arm() {
	f.armed, f.dst, f.mask, f.err = true, nil, nil, nil
	f.started.Store(false)
	f.settled.Store(false)
	f.wg.Add(1)
}

// startFuture hands f's fetch-then-decode to the executor's decode worker,
// first taking the decode target from the arena unless the stash is read as
// stored; only the first call fires.
// Every start goes through here, on the executor's goroutine, so the
// arena's events stay serial and the target is live from the moment the decode
// window reaches it rather than across the whole forward→backward gap. One
// worker decodes the started futures one at a time, in start order —
// first-use order.
func (e *Executor) startFuture(f *stashFuture) {
	if f.started.CompareAndSwap(false, true) {
		if !f.asStored {
			f.dst = e.alloc(f.shape)
		}
		e.decoder.send(f, 1)
	}
}

// stashWorkers is a set of long-lived goroutines that run one kind of stash
// job — encode or fetch-then-decode — on the futures sent to them, in send
// order, each job holding a codec worker slot: a job costs a channel send,
// not a goroutine whose stack must grow. They start at the first send and
// stop at stop (Close), and hold no reference to the executor.
type stashWorkers struct {
	job   func(*stashFuture) // (*stashFuture).encode or .decode
	depth int                // queue slots: one per node
	q     chan *stashFuture  // nil while stopped
	done  *sync.WaitGroup
}

// send queues f, first starting n workers if none run. A future is sent at
// most once a step to each kind of worker, so the send never blocks.
func (w *stashWorkers) send(f *stashFuture, n int) {
	if w.q == nil {
		w.q, w.done = make(chan *stashFuture, w.depth), new(sync.WaitGroup)
		w.done.Add(n)
		for range n {
			go stashLoop(w.q, w.done, w.job)
		}
	}
	w.q <- f
}

// stop closes the queue and waits for the workers to exit. Every job sent
// must already have been waited for.
func (w *stashWorkers) stop() {
	if w.q != nil {
		close(w.q)
		w.done.Wait()
		w.q, w.done = nil, nil
	}
}

// stashLoop is one worker's body: it runs job on each future it receives,
// holding a codec worker slot, until the queue closes.
func stashLoop(q <-chan *stashFuture, done *sync.WaitGroup, job func(*stashFuture)) {
	defer done.Done()
	for f := range q {
		f.cdc.WorkerPool().Run(func() { job(f) })
	}
}

// decode is the one resolution path: fetch the stash from its home, then
// decode it into dst, or open the reader a stash read as stored hands its
// kernels and, for the ReLU that produced the map, take its sign mask.
func (f *stashFuture) decode() {
	defer f.wg.Done()
	defer f.settled.Store(true)
	defer f.recoverInto()
	if f.tel != nil {
		sp := f.asyncSpan("async-decode")
		defer sp.End()
	}
	enc, err := f.store.Fetch(f.sid)
	switch {
	case err != nil:
	case f.asStored:
		err = f.cdc.OpenStored(f.stored, enc, f.shape)
		switch {
		case err != nil || !f.ownY:
		case enc.Tech == encoding.Binarize:
			f.mask = enc.Mask
		case enc.Tech == encoding.ZVC:
			f.mask = enc.ZVC.Mask // bit i set iff Y[i] > 0: a ReLU's output holds no negative or NaN
		default:
			f.signs = f.stored.PositiveMaskInto(f.signs)
			f.mask = f.signs
		}
	default:
		err = f.cdc.DecodeInto(f.dst, enc)
	}
	f.err = err
}

// beginStashes opens a step's stash set: the previous step's containers,
// pages and accounting are dead. Forward calls it when it is about to
// retire, Backward when Forward left every node to it.
func (e *Executor) beginStashes() {
	e.StashBytes = 0
	// Every page from the previous attempt is dead: rewind the spill file.
	e.store.BeginAttempt(e.fkey)
	if e.probeSparsity {
		clear(e.sparsities)
		clear(e.stashSparsities)
	}
	e.mem.reset()
	e.encodeNS = 0
}

// retire ends node n's output's forward life — the executor's equivalent of
// Gist's encode function after each stash's last forward use.
//
// A node with an assignment (NewExecutor resolved it from the analysis and
// the stash budget) joins inFlight, to be settled by settleEncodes; its
// encode was launched at production, or is launched here when nothing did.
// A node without one touches neither codec nor store: the backward view
// aliases the forward output — or, when no backward kernel reads the output
// and a forward consumer has (the "immediately consumed" class), it
// recycles here, unless an inplace ReLU took it: that ReLU's retirement ends
// the shared buffer.
func (e *Executor) retire(n *graph.Node) {
	out := e.outs[n.ID]
	if e.probeSparsity && n.Kind() == layers.ReLU {
		// Capture the Figure 14 probe before the output can recycle.
		e.sparsities[n.Name] = out.Sparsity()
	}
	if as := e.assign[n.ID]; e.probeSparsity && as != nil {
		e.stashSparsities[n.ID] = quantizedSparsity(out.Data, as.Format)
	}
	if e.assign[n.ID] != nil {
		if !e.futures[n.ID].encoding {
			e.launchEncode(n)
		}
		e.inFlight = append(e.inFlight, n)
		return
	}
	if e.opts.Encodings.OutputStashed(n) {
		e.StashBytes += out.Bytes()
		e.mem.add("FP32", out.Bytes(), out.Bytes())
	}
	switch {
	case e.lent[n.ID]:
	case e.bwdReads[n.ID] == 0 && len(n.Consumers()) > 0:
		e.recycle(out)
	default:
		e.stash[n.ID] = out
	}
}

// launchEncode hands node n's output to the encode workers, which encode
// and seal it into n's container while the executor runs on.
func (e *Executor) launchEncode(n *graph.Node) {
	f := &e.futures[n.ID]
	f.src, f.as, f.err, f.encoding = e.outs[n.ID], e.assign[n.ID], nil, true
	f.settled.Store(false)
	f.wg.Add(1)
	e.encoders.send(f, e.cdc.Workers())
}

// waitEncode waits for f's encode if it is launched and not yet waited for.
func (f *stashFuture) waitEncode() {
	if f.encoding {
		f.wg.Wait()
		f.encoding = false
	}
}

// waitEncodes waits for every encode not yet waited for — launched at
// production with its retirement skipped by a failed settle, or left by a
// Forward that panicked part-way — so no worker reads a raw output the pass
// may release.
func (e *Executor) waitEncodes() {
	for i := range e.futures {
		e.futures[i].waitEncode()
	}
}

// settleEncodes completes, in retirement order, the retirement of every
// stash in inFlight but the newest keep: it waits for the encode, then
// stores the stash (storeStash) unless a failure already stopped the step's
// stash set, keeping the first failure in stashErr. A stopped stash set is
// still waited for, so once settleEncodes(0) returns no worker reads a
// retired raw output or writes its container. An instrumented run counts
// whether each encode had finished before it was settled, times the wait and
// the store into the step's train.encode.ns observation and, inside TryStep,
// gives each a span on the step's track.
func (e *Executor) settleEncodes(keep int) {
	if len(e.inFlight) <= keep {
		return
	}
	settle := len(e.inFlight) - keep
	for _, n := range e.inFlight[:settle] {
		f := &e.futures[n.ID]
		if e.stashErr != nil {
			f.waitEncode()
			continue
		}
		if e.tel == nil {
			f.waitEncode()
			e.stashErr = e.storeStash(n)
			continue
		}
		if f.settled.Load() {
			e.met.encOverlapHits.Inc()
		} else {
			e.met.encOverlapMiss.Inc()
		}
		var sp *telemetry.Span
		if e.stepSpan != nil { // the variadic args would allocate even for a nil span
			sp = e.stepSpan.Begin("train", "retire", telemetry.Str("stash", n.Name))
		}
		t0 := time.Now()
		f.waitEncode()
		e.stashErr = e.storeStash(n)
		e.encodeNS += time.Since(t0).Nanoseconds()
		sp.End()
	}
	e.inFlight = e.inFlight[:copy(e.inFlight, e.inFlight[settle:])]
}

// stashRest opens Backward: it stashes, in node order, what Forward did not
// retire (the sinks; every node after an inference Forward) and closes the
// step's stash accounting. Forward's failure or its own returns before any
// gradient accumulates; only a complete stash set records a memory sample.
func (e *Executor) stashRest() error {
	if !e.fwdRetired {
		e.beginStashes()
	}
	if e.stashErr == nil {
		for _, n := range e.G.Nodes {
			if !e.fwdRetired || len(n.Consumers()) == 0 {
				e.retire(n)
			}
		}
		e.settleEncodes(0)
	}
	err := e.stashErr
	if e.tel != nil {
		e.met.encodeNS.Observe(e.encodeNS)
		if err == nil {
			e.tel.RecordMemSample(e.mem.sample(e.stepCount))
			e.met.stashHeld.Observe(e.mem.held)
		}
	}
	return err
}

// storeStash carries node n's encoded output across the forward→backward
// gap — the rest of the one lifecycle of a stashed feature map, once its
// encode future has built the sealed container: release the raw output,
// hand the container to the store, and arm the future that will fetch and
// decode it.
//
// This is also where the robustness layer lives: injected encode/decode/
// alloc failures surface here as typed errors — drawn here, in retirement order,
// exactly as if the encode had run inline — and an assigned stash whose
// runtime sparsity fell below break-even degrades to the dense encoding.
// With no injector, every added path is a nil check.
func (e *Executor) storeStash(n *graph.Node) error {
	f := &e.futures[n.ID]
	out, enc, inj := f.src, f.enc, e.opts.Faults
	if err := inj.FailEncode(e.fkey, n.Name); err != nil {
		e.Robust.EncodeFailures++
		e.met.injEncode.Inc()
		return err
	}
	if f.err != nil {
		return fmt.Errorf("train: stash %q: %w", n.Name, f.err)
	}
	if f.fellBack {
		e.Robust.SparseFallbacks++
		e.met.sparseFallbacks.Inc()
	}
	if err := inj.Alloc(e.fkey, n.Name, enc.Bytes()); err != nil {
		e.Robust.AllocFailures++
		e.met.injAlloc.Inc()
		return err
	}
	if err := inj.FailDecode(e.fkey, n.Name); err != nil {
		e.Robust.DecodeFailures++
		e.met.injDecode.Inc()
		return err
	}
	inj.CorruptStash(e.fkey, n.Name, enc)
	e.StashBytes += enc.Bytes()
	e.mem.add(enc.Tech.String(), out.Bytes(), enc.Bytes())
	// The encoded form now carries the forward→backward gap; the raw output
	// is dead — no backward reader touches it — and returns to the arena,
	// closing the lifetime gap the planner's liveness analysis identifies.
	e.recycle(out)
	err := e.store.Put(n.ID, enc)
	// The backward pass starts the future when its decode window reaches the
	// stash, and only then does it take a decode target: until that start the
	// stash holds its container and nothing else. A failed Put still left the
	// stash in the store, so it is armed too: drainFutures verifies it.
	f.arm()
	e.nFutures++
	if err != nil {
		if errors.Is(err, faults.ErrInjected) { // the ENOSPC transient
			e.Robust.SpillWriteFailures++
			e.met.spillWriteErr.Inc()
		}
		return fmt.Errorf("train: stash %q: %w", n.Name, err)
	}
	return nil
}

// memAccum accumulates one step's stash-memory sample while stashes build.
// It is executor-owned storage, reset per step, so a step with a sink
// allocates no accumulator; without a sink byTech is nil and add discards.
type memAccum struct {
	raw, held int64
	byTech    map[string]telemetry.TechBytes
	rows      []telemetry.TechBytes // the sample's ByTech, reused every step
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
// ordered technique rows (nil when there are none). The rows live in the
// accumulator until the next sample; the sink and its observer copy what
// they keep.
func (m *memAccum) sample(step int) telemetry.MemSample {
	sm := telemetry.MemSample{Step: step, RawBytes: m.raw, HeldBytes: m.held}
	m.rows = m.rows[:0]
	for _, tb := range m.byTech {
		m.rows = append(m.rows, tb)
	}
	slices.SortFunc(m.rows, func(a, b telemetry.TechBytes) int { return strings.Compare(a.Tech, b.Tech) })
	if len(m.rows) > 0 {
		sm.ByTech = m.rows
	}
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

// doneReading drains one backward read of node id's stash and recycles the
// view once its last reader is done. recycle makes the stash-aliases-output
// case safe: the shared tensor is returned exactly once.
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
// The backward kernels overlap the decode of the stashes read next: a window
// keeps the futures of the next decodeWindow stashes in first-use order
// started (fillWindow), and the loop blocks only when a consumer actually
// needs a tensor still in flight. Decode is bit-exact regardless of
// scheduling, so gradients do not depend on the worker count — which the
// parallel executor tests pin.
//
// Under pooling this is also where the planner's liveness plays out at
// runtime: each stashed tensor recycles when its read count (bwdReads, from
// the needs the executor runs on) drains to zero, each input gradient
// recycles the moment it merges into an existing accumulator, and each
// node's incoming gradient recycles after that node's kernels consume it.
func (e *Executor) Backward() error {
	// Deferred first, so a pass that reached the end completes after
	// drainFutures, whose decode targets belong to it.
	whole := false
	defer func() {
		if whole {
			e.completePass()
		}
	}()
	defer e.drainFutures()
	err := e.stashRest()
	if err != nil {
		return err
	}
	copy(e.bwdLeft, e.bwdReads)
	clear(e.gradOf)
	e.reached, e.started = 0, 0
	nodes := e.G.Nodes
	for i := len(nodes) - 1; i >= 0; i-- {
		e.passNode(i)
		n := nodes[i]
		if n.Kind() == layers.Input {
			continue
		}
		dOut := e.gradOf[n.ID]
		if dOut == nil {
			if n.Kind() != layers.SoftmaxXent {
				// Dead branch: no path from here reaches the loss, so no
				// gradient flowed and its stashes go unread.
				continue
			}
			// The loss's Backward seeds the gradient itself.
			dOut = e.alloc(n.OutShape)
		}
		needs := e.needs[n.ID]
		ins := e.insBuf[:0]
		dIns := e.dInsBuf[:0]
		var stored layers.StashReader
		var scratch *tensor.Tensor
		for _, in := range n.Inputs {
			dIns = append(dIns, e.gradFor(n, in, dOut))
			var t *tensor.Tensor
			if needs.X {
				t, err = e.stashOf(in.ID)
				if err != nil {
					return e.failBackward(err)
				}
				if f := &e.futures[in.ID]; f.asStored {
					// A Conv, FC or BatchNorm (Analyze reads no other way):
					// it decodes X an image at a time into one image of
					// scratch.
					stored, scratch = f.stored, e.alloc(in.OutShape[1:])
				}
			}
			ins = append(ins, t)
		}
		e.insBuf, e.dInsBuf = ins, dIns
		e.bwdCtx = layers.BwdCtx{
			Params: e.params[n.ID], InStash: stored, DOut: dOut,
			DIn: dIns, DParams: e.grads[n.ID], Aux: e.aux[n.ID],
		}
		if needs.X {
			e.bwdCtx.In = ins
		}
		if scratch != nil {
			e.bwdCtx.Scratch = scratch.Data
		}
		if needs.Y {
			t, err := e.stashOf(n.ID)
			if err != nil {
				return e.failBackward(err)
			}
			e.bwdCtx.Out, e.bwdCtx.OutMask = t, e.futures[n.ID].mask
		}
		n.Op.Backward(&e.bwdCtx)
		e.recycle(scratch)
		for j, in := range n.Inputs {
			if dIns[j] == nil {
				continue
			}
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
		// The incoming gradient was fully consumed by this node's kernels,
		// unless it now holds the input's.
		e.gradOf[n.ID] = nil
		if !e.inplaceDX[n.ID] {
			e.recycle(dOut)
		}
	}
	whole = true
	return nil
}

// gradFor returns the buffer n's backward writes in's gradient into: dOut,
// n's incoming gradient, for an inplace ReLU, which reads each dy before it
// writes its dx; nil for the graph input under a Conv or FC, which then
// compute dW and dB only (nothing reads the input's gradient, and liveness
// plans none); else a new buffer.
func (e *Executor) gradFor(n, in *graph.Node, dOut *tensor.Tensor) *tensor.Tensor {
	switch {
	case e.inplaceDX[n.ID]:
		return dOut
	case in.Kind() == layers.Input && (n.Kind() == layers.Conv || n.Kind() == layers.FC):
		return nil
	}
	return e.alloc(in.OutShape)
}

// decodeWindow is how many stashes past the last one behind the backward
// pass it keeps decoding, in first-use order. Two keeps the decode worker on
// the next stash while the consumer's kernels run, with the one after it
// queued. One left the worker idle between resolutions and was the slower
// of the two on some seeds; three lifted ResNet-20's encoded peak past the
// plan + 2 x largest-map bound (EXPERIMENTS.md, the window sweep).
const decodeWindow = 2

// compileDecodeOrder builds bwdOrder and bwdFirst: the encoded stashes in
// the order the backward pass first reads them — the walk Backward makes,
// node by node in reverse, inputs before the node's own output.
func (e *Executor) compileDecodeOrder() {
	add := func(id, reader int) {
		if f := &e.futures[id]; e.assign[id] != nil && f.pos < 0 {
			f.pos = len(e.bwdOrder)
			e.bwdOrder = append(e.bwdOrder, id)
			e.bwdFirst = append(e.bwdFirst, reader)
		}
	}
	for i := len(e.G.Nodes) - 1; i >= 0; i-- {
		n := e.G.Nodes[i]
		if n.Kind() == layers.Input {
			continue
		}
		needs := e.needs[n.ID]
		if needs.X {
			for _, in := range n.Inputs {
				add(in.ID, i)
			}
		}
		if needs.Y {
			add(n.ID, i)
		}
	}
}

// passNode moves the window to the boundary of node i: every stash first
// read by a later node is behind the pass — resolved, or read only by a dead
// branch, whose future must not hold the window back.
func (e *Executor) passNode(i int) {
	for e.reached < len(e.bwdOrder) && e.bwdFirst[e.reached] > i {
		e.reached++
	}
	e.fillWindow()
}

// fillWindow starts every armed future up to decodeWindow entries of
// bwdOrder past reached. Entries are taken in order, so the decode worker
// runs them in the order their consumers will ask.
func (e *Executor) fillWindow() {
	for end := min(e.reached+decodeWindow, len(e.bwdOrder)); e.started < end; e.started++ {
		if f := &e.futures[e.bwdOrder[e.started]]; f.armed {
			e.startFuture(f)
		}
	}
}

// stashOf resolves the backward view of a node's output, waiting on its
// future (and caching the decoded tensor) when one is armed. A stash read as
// stored resolves to no tensor: its future's mask is the view.
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
	// The window slides past this stash: its successors decode while the
	// consumer's kernels run.
	e.reached = max(e.reached, f.pos+1)
	e.fillWindow()
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
func (e *Executor) zeroGrads() { clear(e.gradFlat) }

// drainFutures settles every armed future — a dead branch's, or one a failed
// attempt's backward pass never reached: it starts each, waits for it (no
// goroutine from this pass outlives Backward) and counts its failure, so
// every injected flip or page tamper is detected. Runs on the executor's
// goroutine only; idempotent, and re-run at Forward and Close for a training
// Forward whose Backward never ran (a step cancelled in between).
func (e *Executor) drainFutures() {
	// Only a Forward that panicked part-way leaves an encode in flight; its
	// raw output must not recycle under the worker still reading it.
	e.waitEncodes()
	e.inFlight = e.inFlight[:0]
	if e.nFutures == 0 {
		return
	}
	for i := range e.futures {
		if f := &e.futures[i]; f.armed {
			e.startFuture(f)
		}
	}
	for i := range e.futures {
		f := &e.futures[i]
		if !f.armed {
			continue
		}
		f.wg.Wait()
		f.armed = false
		e.noteStashErr(f.err)
	}
	e.nFutures = 0
}

// ClipGradNorm rescales all parameter gradients so their global L2 norm is
// at most maxNorm, the standard guard against the exploding gradients that
// plain SGD on deeper ReLU stacks invites. The squared norm accumulates in
// graph-node order: float addition is not associative, so a map-order walk
// would make the clip scale (and therefore the updated weights) vary
// run-to-run.
func (e *Executor) ClipGradNorm(maxNorm float64) {
	var sumSq float64
	for _, v := range e.gradFlat {
		sumSq += float64(float64(v) * float64(v))
	}
	norm := math.Sqrt(sumSq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := float32(maxNorm / norm)
	for k := range e.gradFlat {
		e.gradFlat[k] *= scale
	}
}

// SGD applies one momentum-SGD update and zeroes the gradients.
func (e *Executor) SGD(lr, momentum, weightDecay float32) {
	p := e.paramFlat
	g, m := e.gradFlat[:len(p)], e.momFlat[:len(p)]
	for k := range p {
		grad := g[k] + float32(weightDecay*p[k])
		m[k] = float32(momentum*m[k]) + grad
		p[k] -= float32(lr * m[k])
	}
	clear(g)
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
// when Backward opens (a retirement that failed in Forward, or one of the
// sink stashes Backward makes itself, before gradients accumulate) or
// mid-backward, when a future reports a corrupt or unreadable stash — where
// every partially accumulated gradient is zeroed before the error returns.
// Batch-norm running statistics and the dropout RNG have still advanced —
// restore a Snapshot before retrying for a bit-exact replay. Fault-injected
// runs must use TryStep or RunRecoverable (snapshot/retry/backoff around it).
func (e *Executor) TryStep(input *tensor.Tensor, labels []int, lr float32) (loss float64, errs int, err error) {
	if cerr := e.ctxErr(); cerr != nil {
		return 0, 0, fmt.Errorf("train: step not started: %w", cerr)
	}
	e.stepCount++
	e.beginAttempt(e.opts.Faults.Step(), 0)
	instrumented := e.tel != nil
	var start time.Time
	if instrumented {
		start = time.Now()
		if e.tel.TracingEnabled() { // an observer takes no arguments, and building one allocates
			e.stepSpan = e.tel.Begin("train", "step", telemetry.Int("step", int64(e.stepCount)))
		} else {
			e.stepSpan = e.tel.Begin("train", "step")
		}
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
		// retirements armed and the arena views it left taken are drained
		// and released at the next Forward or by Close.
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

// beginAttempt keys the fault draws of the next attempt at shard of step,
// numbered by the earlier tries of that shard at that step, by any loop.
func (e *Executor) beginAttempt(step, shard int) {
	if step != e.fkey.Step {
		clear(e.tries)
	}
	for len(e.tries) <= shard {
		e.tries = append(e.tries, 0)
	}
	e.fkey = faults.Key{Step: step, Shard: shard, Attempt: e.tries[shard]}
	e.tries[shard]++
}

// Telemetry returns the sink the executor reports to (nil when
// uninstrumented).
func (e *Executor) Telemetry() *telemetry.Sink { return e.tel }

// SetSparsityProbe arms (or disarms) per-step capture of ReLU output
// sparsities at retirement, before the outputs can recycle — what
// ReLUSparsities and StashSparsities report. The run loop arms it for a run with
// RunConfig.ProbeSparsity set and disarms it when that run returns. The
// capture costs one pass over each ReLU output and encoded stash per step,
// so it is off by default.
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

// StashSparsities returns the zero fraction of every encoded stash's map
// as its assignment's DPR format quantizes it — the nonzeros ZVC holds —
// keyed by node ID, as captured when the latest training step
// retired them. Empty unless SetSparsityProbe armed the capture.
func (e *Executor) StashSparsities() map[int]float64 {
	return maps.Clone(e.stashSparsities)
}

// quantizedSparsity is the fraction of xs that format f holds as zero.
func quantizedSparsity(xs []float32, f floatenc.Format) float64 {
	if len(xs) == 0 {
		return 0
	}
	minBits, zeros := f.MinNonzeroBits(), 0
	for _, v := range xs {
		if math.Float32bits(v)&0x7fffffff < minBits {
			zeros++
		}
	}
	return float64(zeros) / float64(len(xs))
}
