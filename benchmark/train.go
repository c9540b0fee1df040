package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gist"
	"gist/internal/bufpool"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/parallel"
	"gist/internal/stashstore"
	"gist/internal/telemetry"
	"gist/internal/train"
)

// trainRun carries what every epoch of one run of a train workload shares.
type trainRun struct {
	spec     *trainSpec
	seed     uint64
	steps    int // timed steps per epoch (spec.steps, scaled down by -quick)
	batches  []batch
	budget   int64  // stash budget, spill workload only
	spillDir string // fresh directory under the run's work dir
}

func newTrainRun(spec *trainSpec, seed uint64, scale int, workDir string) (*trainRun, error) {
	r := &trainRun{spec: spec, seed: seed, steps: max(spec.steps/scale, memorySteps)}
	r.batches = spec.batches(seed, warmupSteps+r.steps)
	if spec.spill {
		dir, err := os.MkdirTemp(workDir, "spill-")
		if err != nil {
			return nil, err
		}
		r.spillDir = dir
		// Size the budget from the data: a quarter of the hot-tier peak the
		// same trainer reaches with the store on and nothing evicted.
		tr := gist.NewTrainer(spec.graph(), spec.options(seed, 1<<40, dir)...)
		for _, b := range r.batches[:3] {
			if _, _, err := tr.Step(b.x, b.labels, spec.lr); err != nil {
				tr.Close()
				return nil, fmt.Errorf("budget probe: %w", err)
			}
		}
		r.budget = tr.StashStats().HotPeakBytes / 4
		tr.Close()
		if r.budget <= 0 {
			return nil, fmt.Errorf("budget probe: the hot tier never held a byte")
		}
	}
	return r, nil
}

func (r *trainRun) newTrainer(extra ...gist.TrainerOption) (*graph.Graph, *gist.Trainer) {
	g := r.spec.graph()
	return g, gist.NewTrainer(g, append(r.spec.options(r.seed, r.budget, r.spillDir), extra...)...)
}

// spillFilesLeft counts gist-spill-* files in the run's spill directory.
func (r *trainRun) spillFilesLeft() int {
	left, _ := filepath.Glob(filepath.Join(r.spillDir, "gist-spill-*"))
	return len(left)
}

// weightsHash is FNV-1a over every parameter's bits in node order. It
// allocates nothing, so it can run between timed steps.
func weightsHash(g *graph.Graph, e *train.Executor) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range g.Nodes {
		for _, p := range e.Params(n) {
			for _, v := range p.Data {
				b := math.Float32bits(v)
				for s := 0; s < 32; s += 8 {
					h = (h ^ uint64(byte(b>>s))) * 1099511628211
				}
			}
		}
	}
	return h
}

// epochResult is what one Step-driven epoch measured.
type epochResult struct {
	newTrainerMS float64
	firstStepMS  float64 // graph build -> NewTrainer -> first Step returned
	warmupLoss0  float64 // loss of that first step
	setupS       float64 // ... -> last warm-up Step returned
	setupCalS    float64 // setupS at nominal CPU speed (yardstick.go)
	stepMS       []float64
	stepCalMS    []float64 // stepMS at nominal CPU speed
	losses       []float64
	allocs       float64 // mallocs over the timed steps
	failed       int
	stashBytes   int64
	hash         uint64 // weights after the last step
	hashEarly    uint64 // weights after memorySteps steps
	pool         bufpool.Stats
	poolTimed    bufpool.Stats // delta over the timed steps
	store        stashstore.Stats
}

// setupOnly builds the trainer and runs the first steps warm-up steps, for
// the extra set-up and cold-start samples a run takes besides its epochs.
func (r *trainRun) setupOnly(steps int) epochResult {
	res, tr := r.setup(steps)
	tr.Close()
	return res
}

func (r *trainRun) setup(steps int) (epochResult, *gist.Trainer) {
	var res epochResult
	ref := readYardstick()
	t0 := time.Now()
	_, tr := r.newTrainer()
	res.newTrainerMS = ms(time.Since(t0).Nanoseconds())
	for i, b := range r.batches[:steps] {
		loss, _, err := tr.Step(b.x, b.labels, r.spec.lr)
		if err != nil {
			res.failed++
		}
		if i == 0 {
			res.firstStepMS, res.warmupLoss0 = ms(time.Since(t0).Nanoseconds()), loss
		}
	}
	res.setupS = time.Since(t0).Seconds()
	res.setupCalS = calibrated(res.setupS, ref, readYardstick())
	return res, tr
}

// referenceResult is what the plain reference executor produced.
type referenceResult struct {
	losses []float64
	hash   uint64
}

// reference trains a plain executor — no pool, no encodings, no codec, no
// store — on the run's seed and first batches: one step for an encoded
// workload (Gist keeps the forward pass exact, so the first loss must match
// bit for bit), memorySteps for the dense one (pooling is byte-identical, so
// the weights must too).
func (r *trainRun) reference() referenceResult {
	steps := 1
	if !r.spec.encoded {
		steps = memorySteps
	}
	g := r.spec.graph()
	exec := train.NewExecutor(g, train.Options{Seed: r.seed})
	var res referenceResult
	for _, b := range r.batches[:steps] {
		loss, _ := exec.Step(b.x, b.labels, r.spec.lr)
		res.losses = append(res.losses, loss)
	}
	res.hash = weightsHash(g, exec)
	return res
}

// epoch runs one untraced, Step-driven epoch: the source of every
// end-to-end timing.
func (r *trainRun) epoch() epochResult {
	res, tr := r.setup(warmupSteps)
	defer tr.Close()
	g, exec := tr.Executor().G, tr.Executor()
	res.stepMS = make([]float64, 0, r.steps)
	res.losses = make([]float64, 0, r.steps)
	res.stepCalMS = make([]float64, 0, r.steps)
	poolBefore := tr.PoolStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref := readYardstick()
	for i, b := range r.batches[warmupSteps:] {
		t := time.Now()
		loss, _, err := tr.Step(b.x, b.labels, r.spec.lr)
		wall := ms(time.Since(t).Nanoseconds())
		res.stepMS = append(res.stepMS, wall)
		refAfter := readYardstick()
		res.stepCalMS = append(res.stepCalMS, calibrated(wall, ref, refAfter))
		ref = refAfter
		res.losses = append(res.losses, loss)
		if err != nil {
			res.failed++
		}
		if warmupSteps+i+1 == memorySteps {
			res.hashEarly = weightsHash(g, exec)
		}
	}
	runtime.ReadMemStats(&after)
	res.allocs = float64(after.Mallocs - before.Mallocs)
	res.stashBytes = exec.StashBytes
	res.hash = weightsHash(g, exec)
	res.pool = tr.PoolStats()
	res.poolTimed = bufpool.Stats{
		Hits:   res.pool.Hits - poolBefore.Hits,
		Misses: res.pool.Misses - poolBefore.Misses,
	}
	res.store = tr.StashStats()
	return res
}

// phaseLoop drives the executor the way Trainer.Step does, phase by phase:
// Forward, Backward, ClipGradNorm(5) + SGD(lr, 0.9, 1e-4). rec, when
// non-nil, receives run -> step -> {forward, backward, sgd} spans; after,
// when non-nil, runs after every phase and, as after("step"), once the
// step's span has closed. The weights-hash check proves the loop is a
// faithful driver.
func phaseLoop(tr *gist.Trainer, batches []batch, lr float32, rec *recorder, after func(phase string)) (losses []float64, failed int) {
	exec := tr.Executor()
	var lossNode *graph.Node
	for _, n := range exec.G.Nodes {
		if n.Kind() == layers.SoftmaxXent {
			lossNode = n
		}
	}
	sm := lossNode.Op.(*layers.SoftmaxXentOp)
	phase := func(parent int, name, key string, fn func()) {
		t := time.Now()
		fn()
		if rec != nil {
			rec.add(parent, name, key, 0, t, time.Now())
		}
		if after != nil {
			after(name)
		}
	}
	run := -1
	if rec != nil {
		run = rec.begin(-1, "run", "", 0)
		defer rec.finish(run)
	}
	for i, b := range batches {
		key, step := fmt.Sprintf("step-%d", i), -1
		if rec != nil {
			step = rec.begin(run, "step", key, 0)
		}
		var loss float64
		var err error
		phase(step, "forward", key, func() {
			exec.Forward(b.x, b.labels, true)
			loss, _ = sm.Loss(exec.Output(lossNode), b.labels)
		})
		phase(step, "backward", key, func() { err = exec.Backward() })
		if err != nil {
			failed++
		} else {
			phase(step, "sgd", key, func() {
				exec.ClipGradNorm(5)
				exec.SGD(lr, 0.9, 1e-4)
			})
		}
		if rec != nil {
			rec.finish(step)
		}
		if after != nil {
			after("step")
		}
		losses = append(losses, loss)
	}
	return losses, failed
}

// memoryResult is what the memory pass measured.
type memoryResult struct {
	liveHeap          int64 // max over phases of HeapAlloc after a forced GC, minus the pre-build reading
	inUseAfterForward int64 // bufpool InUseBytes after Forward, max over steps
	hash              uint64
	failed            int
}

func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// memoryPass measures the live heap of training from outside the program:
// memorySteps phase-driven steps on a fresh trainer, a forced GC after every
// phase.
func (r *trainRun) memoryPass() memoryResult {
	var res memoryResult
	base := heapAfterGC()
	g, tr := r.newTrainer()
	defer tr.Close()
	_, res.failed = phaseLoop(tr, r.batches[:memorySteps], r.spec.lr, nil, func(phase string) {
		if phase == "step" {
			return // the heap was read after the step's last phase
		}
		if phase == "forward" {
			res.inUseAfterForward = max(res.inUseAfterForward, tr.PoolStats().InUseBytes)
		}
		res.liveHeap = max(res.liveHeap, heapAfterGC()-base)
	})
	res.hash = weightsHash(g, tr.Executor())
	return res
}

// tracedResult is what the traced pass measured.
type tracedResult struct {
	rec    *recorder
	sink   *telemetry.Sink
	refMS  []float64 // the yardstick, read before the first traced step and after every one, outside its span
	losses []float64
	failed int
	hash   uint64
}

// tracedEpoch reruns the epoch with the executor's and the worker pools'
// telemetry attached and the benchmark's span recorder around the
// phase-driven loop. No end-to-end number comes from here.
func (r *trainRun) tracedEpoch() tracedResult {
	res := tracedResult{rec: newRecorder(), sink: telemetry.New()}
	res.sink.EnableTracing(1 << 16)
	parallel.SetTelemetry(res.sink)
	defer parallel.SetTelemetry(nil)
	g, tr := r.newTrainer(gist.WithTelemetry(res.sink))
	defer tr.Close()
	_, res.failed = phaseLoop(tr, r.batches[:warmupSteps], r.spec.lr, nil, nil)
	var failed int
	res.refMS = append(res.refMS, readYardstick())
	res.losses, failed = phaseLoop(tr, r.batches[warmupSteps:], r.spec.lr, res.rec, func(phase string) {
		if phase == "step" {
			res.refMS = append(res.refMS, readYardstick())
		}
	})
	res.failed += failed
	res.hash = weightsHash(g, tr.Executor())
	return res
}
