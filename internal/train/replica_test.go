package train

import (
	"errors"
	"math"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/telemetry"
)

// flatParams snapshots every parameter of the executor, flat, in
// graph-node order — the byte-level object the determinism property is
// stated over.
func flatParams(e *Executor) []float32 {
	var out []float32
	for _, n := range e.G.Nodes {
		for _, p := range e.params[n.ID] {
			out = append(out, p.Data...)
		}
	}
	return out
}

func paramsBitsEqual(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", label, len(got), len(want))
	}
	for k := range got {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			t.Fatalf("%s: param %d = %x (%g), want %x (%g)",
				label, k, math.Float32bits(got[k]), got[k],
				math.Float32bits(want[k]), want[k])
		}
	}
}

type replicaRun struct {
	replicas int
	workers  int
}

// trainReplicaGroup builds a fresh group over build(shardBatch, classes)
// and trains it for steps steps on a deterministically seeded dataset,
// returning replica 0's final parameters and the final loss.
func trainReplicaGroup(t *testing.T, build func(mb, classes int) *graph.Graph,
	shardBatch, shards, replicas, workers, steps int, encode bool) ([]float32, float64) {
	t.Helper()
	const classes = 4
	g := build(shardBatch, classes)
	opts := Options{Seed: 42, Pool: bufpool.New()}
	var codecPool *parallel.Pool
	if workers > 1 {
		codecPool = parallel.NewPool(workers)
	}
	opts.Codec = &encoding.Codec{Pool: codecPool}
	if encode {
		opts.Encodings = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	}
	rg := NewReplicaGroup(g, opts, ReplicaConfig{Replicas: replicas, Shards: shards})
	defer rg.Close()

	in := g.InputNodes()[0].OutShape
	d := NewDataset(classes, in[1], in[2], 0.3, 7)
	var loss float64
	for step := 0; step < steps; step++ {
		x, labels := d.Batch(rg.Batch())
		loss, _ = rg.Step(x, labels, 0.05)
	}
	return flatParams(rg.Executor()), loss
}

// TestReplicaDeterminism is the engine's core property: at a fixed shard
// count, every (replica count, worker count) combination trains to
// byte-identical weights — the merged gradient is a pure function of the
// data, never of the execution topology. Covered with and without the
// encode/decode pipeline in the loop.
func TestReplicaDeterminism(t *testing.T) {
	if race.Enabled {
		t.Skip("bit-exactness matrix, no concurrency of its own; ~10x too slow under -race")
	}
	const shards, shardBatch, steps = 4, 2, 50
	runs := []replicaRun{{1, 1}, {1, 4}, {2, 1}, {2, 4}, {4, 1}, {4, 4}}
	for _, encode := range []bool{false, true} {
		name := "plain"
		if encode {
			name = "encoded"
		}
		t.Run(name, func(t *testing.T) {
			ref, refLoss := trainReplicaGroup(t, networks.TinyCNN,
				shardBatch, shards, runs[0].replicas, runs[0].workers, steps, encode)
			if refLoss != refLoss || refLoss > 10 {
				t.Fatalf("reference run diverged: loss %g", refLoss)
			}
			for _, r := range runs[1:] {
				got, _ := trainReplicaGroup(t, networks.TinyCNN,
					shardBatch, shards, r.replicas, r.workers, steps, encode)
				paramsBitsEqual(t, got, ref, name)
			}
		})
	}
}

// TestReplicaDeterminismTinyVGG repeats the property on the deeper Figure
// 14 network with a reduced combination matrix (the interesting corners:
// serial baseline, maximal replica fan-out, replicas-with-workers).
func TestReplicaDeterminismTinyVGG(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("TinyVGG determinism matrix is slow")
	}
	const shards, shardBatch, steps = 4, 1, 50
	ref, refLoss := trainReplicaGroup(t, networks.TinyVGG, shardBatch, shards, 1, 1, steps, true)
	if refLoss != refLoss {
		t.Fatal("reference run diverged to NaN")
	}
	for _, r := range []replicaRun{{4, 1}, {2, 4}} {
		got, _ := trainReplicaGroup(t, networks.TinyVGG, shardBatch, shards, r.replicas, r.workers, steps, true)
		paramsBitsEqual(t, got, ref, "tinyvgg")
	}
}

// TestReplicaMatchesSingleExecutor pins the degenerate group (1 replica,
// 1 shard) to the plain executor: same weights after the same steps, so
// the replica engine is a strict generalization, not a parallel dialect.
func TestReplicaMatchesSingleExecutor(t *testing.T) {
	const mb, classes, steps = 8, 4, 30

	g1 := networks.TinyCNN(mb, classes)
	e := NewExecutor(g1, Options{Seed: 42})
	d1 := NewDataset(classes, 3, 16, 0.3, 7)
	for step := 0; step < steps; step++ {
		x, labels := d1.Batch(mb)
		e.Step(x, labels, 0.05)
	}

	g2 := networks.TinyCNN(mb, classes)
	rg := NewReplicaGroup(g2, Options{Seed: 42}, ReplicaConfig{Replicas: 1, Shards: 1})
	defer rg.Close()
	d2 := NewDataset(classes, 3, 16, 0.3, 7)
	for step := 0; step < steps; step++ {
		x, labels := d2.Batch(mb)
		rg.Step(x, labels, 0.05)
	}

	paramsBitsEqual(t, flatParams(rg.Executor()), flatParams(e), "1x1 group vs executor")
}

// TestReplicaEval checks group evaluation: shard-mean loss is finite and
// error counts land in [0, batch].
func TestReplicaEval(t *testing.T) {
	const classes = 4
	g := networks.TinyCNN(2, classes)
	rg := NewReplicaGroup(g, Options{Seed: 1}, ReplicaConfig{Replicas: 2, Shards: 4})
	defer rg.Close()
	d := NewDataset(classes, 3, 16, 0.3, 3)
	x, labels := d.Batch(rg.Batch())
	for i := 0; i < 5; i++ {
		rg.Step(x, labels, 0.05)
	}
	loss, errs := rg.Eval(x, labels)
	if loss != loss || loss < 0 {
		t.Fatalf("eval loss %g", loss)
	}
	if errs < 0 || errs > rg.Batch() {
		t.Fatalf("eval errors %d out of range [0,%d]", errs, rg.Batch())
	}
}

// TestReplicaClamp checks config normalization: replicas never exceed
// shards, zero values pick the documented defaults.
func TestReplicaClamp(t *testing.T) {
	g := networks.TinyCNN(2, 4)
	rg := NewReplicaGroup(g, Options{Seed: 1}, ReplicaConfig{Replicas: 8, Shards: 3})
	defer rg.Close()
	if rg.Replicas() != 3 || rg.Shards() != 3 {
		t.Fatalf("got %d replicas / %d shards, want 3/3", rg.Replicas(), rg.Shards())
	}
	g2 := networks.TinyCNN(2, 4)
	rg2 := NewReplicaGroup(g2, Options{Seed: 1}, ReplicaConfig{})
	defer rg2.Close()
	if rg2.Replicas() != 1 || rg2.Shards() != 1 {
		t.Fatalf("zero config: got %d/%d, want 1/1", rg2.Replicas(), rg2.Shards())
	}
}

// TestNewEngineChoosesOnce pins the one executor-or-group predicate: only a
// config that asks for neither a second replica nor a shard count is a
// single Executor; one pinned shard is already a group (per-shard dropout
// seeding), and replicas default their shard count.
func TestNewEngineChoosesOnce(t *testing.T) {
	for _, tc := range []struct {
		cfg              ReplicaConfig
		group            bool
		replicas, shards int
	}{
		{cfg: ReplicaConfig{}},
		{cfg: ReplicaConfig{Replicas: 1, MaxRetries: 3}},
		{cfg: ReplicaConfig{Shards: 1}, group: true, replicas: 1, shards: 1},
		{cfg: ReplicaConfig{Replicas: 2}, group: true, replicas: 2, shards: 2},
	} {
		en := NewEngine(networks.TinyCNN(2, 4), Options{Seed: 1}, tc.cfg)
		rg, isGroup := en.(*ReplicaGroup)
		if isGroup != tc.group {
			t.Fatalf("%+v: built %T", tc.cfg, en)
		}
		wantBatch := 2
		if isGroup {
			if rg.Replicas() != tc.replicas || rg.Shards() != tc.shards {
				t.Fatalf("%+v: %d replicas / %d shards, want %d/%d",
					tc.cfg, rg.Replicas(), rg.Shards(), tc.replicas, tc.shards)
			}
			wantBatch = 2 * tc.shards
		}
		if en.Batch() != wantBatch || len(en.Executors()) != max(tc.replicas, 1) {
			t.Fatalf("%+v: batch %d over %d executors, want %d over %d",
				tc.cfg, en.Batch(), len(en.Executors()), wantBatch, max(tc.replicas, 1))
		}
		en.Close()
	}
}

// faultOpts builds replica options with the encode pipeline and an armed
// injector, the configuration the retry machinery exists for.
func faultOpts(g *graph.Graph, fc faults.Config, tel *telemetry.Sink) Options {
	opts := Options{
		Seed:      42,
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		Integrity: true,
		Faults:    faults.New(fc),
		Telemetry: tel,
	}
	return opts
}

// TestReplicaFaultRetry checks that a lossy decode path under injected
// decode failures still trains: shard attempts are retried within the
// budget, the retry counter moves, and no step is lost.
func TestReplicaFaultRetry(t *testing.T) {
	tel := telemetry.New()
	g := networks.TinyCNN(2, 4)
	opts := faultOpts(g, faults.Config{Seed: 9, DecodeFailRate: 0.05}, tel)
	rg := NewReplicaGroup(g, opts, ReplicaConfig{Replicas: 2, Shards: 4, MaxRetries: 8})
	defer rg.Close()

	d := NewDataset(4, 3, 16, 0.3, 7)
	for step := 0; step < 10; step++ {
		x, labels := d.Batch(rg.Batch())
		if _, _, err := rg.TryStep(x, labels, 0.05); err != nil {
			t.Fatalf("step %d abandoned inside a generous retry budget: %v", step, err)
		}
	}
	if got := tel.Counter("replica.shard.retries").Value(); got == 0 {
		t.Fatal("5% per-stash decode failures over 40 shard-steps produced zero retries")
	}
	for k, v := range flatParams(rg.Executor()) {
		if v != v {
			t.Fatalf("param %d is NaN after faulty training", k)
		}
	}
}

// TestReplicaRetryDeterminism is the strong fault property: a run that
// retried through injected decode failures ends bit-identical to a
// fault-free run. A failed attempt must leave nothing behind — zeroed
// gradients, reseeded RNG — so the successful retry is indistinguishable
// from never having failed.
func TestReplicaRetryDeterminism(t *testing.T) {
	train := func(fc faults.Config, retries int) []float32 {
		g := networks.TinyCNN(2, 4)
		opts := faultOpts(g, fc, nil)
		rg := NewReplicaGroup(g, opts, ReplicaConfig{Replicas: 2, Shards: 4, MaxRetries: retries})
		defer rg.Close()
		d := NewDataset(4, 3, 16, 0.3, 7)
		for step := 0; step < 15; step++ {
			x, labels := d.Batch(rg.Batch())
			if _, _, err := rg.TryStep(x, labels, 0.05); err != nil {
				t.Fatalf("step abandoned: %v", err)
			}
		}
		return flatParams(rg.Executor())
	}
	clean := train(faults.Config{}, 0)
	faulty := train(faults.Config{Seed: 11, DecodeFailRate: 0.03}, 16)
	paramsBitsEqual(t, faulty, clean, "retried vs fault-free")
}

// TestReplicaStepAbandoned checks the give-up path: with a zero retry
// budget and certain encode failure, the step reports ErrStepAbandoned and
// leaves every parameter untouched.
func TestReplicaStepAbandoned(t *testing.T) {
	tel := telemetry.New()
	g := networks.TinyCNN(2, 4)
	opts := faultOpts(g, faults.Config{Seed: 5, EncodeFailRate: 1}, tel)
	rg := NewReplicaGroup(g, opts, ReplicaConfig{Replicas: 2, Shards: 2, MaxRetries: 0})
	defer rg.Close()

	before := flatParams(rg.Executor())
	d := NewDataset(4, 3, 16, 0.3, 7)
	x, labels := d.Batch(rg.Batch())
	_, _, err := rg.TryStep(x, labels, 0.05)
	if !errors.Is(err, ErrStepAbandoned) {
		t.Fatalf("got %v, want ErrStepAbandoned", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("abandon error should wrap the injected failure, got %v", err)
	}
	paramsBitsEqual(t, flatParams(rg.Executor()), before, "params after abandoned step")
	if tel.Counter("replica.steps.abandoned").Value() != 1 {
		t.Fatal("abandon counter did not move")
	}

	// The group recovers: with injection effectively disabled the next step
	// applies normally.
	rg.inj = nil
	for _, e := range rg.execs {
		e.opts.Faults = nil
	}
	if _, _, err := rg.TryStep(x, labels, 0.05); err != nil {
		t.Fatalf("step after abandon: %v", err)
	}
}

// TestReplicaTelemetry checks the group publishes its reduce instruments.
func TestReplicaTelemetry(t *testing.T) {
	tel := telemetry.New()
	g := networks.TinyCNN(2, 4)
	rg := NewReplicaGroup(g, Options{Seed: 1, Telemetry: tel}, ReplicaConfig{Replicas: 2, Shards: 4})
	defer rg.Close()
	d := NewDataset(4, 3, 16, 0.3, 3)
	x, labels := d.Batch(rg.Batch())
	rg.Step(x, labels, 0.05)
	if tel.Histogram("replica.reduce.ns").Count() == 0 {
		t.Fatal("reduce latency histogram is empty")
	}
	if tel.Counter("replica.reduce.bytes").Value() == 0 {
		t.Fatal("reduce bytes counter did not move")
	}
}

// TestRunWithReplicaGroup drives the shared training loop through the
// Engine interface with a group engine.
func TestRunWithReplicaGroup(t *testing.T) {
	g := networks.TinyCNN(2, 4)
	rg := NewReplicaGroup(g, Options{Seed: 42}, ReplicaConfig{Replicas: 2, Shards: 4})
	defer rg.Close()
	d := NewDataset(4, 3, 16, 0.3, 7)
	recs := Run(rg, d, RunConfig{Minibatch: rg.Batch(), Steps: 20, LR: 0.05, ProbeEvery: 5})
	if len(recs) != 4 {
		t.Fatalf("got %d probe records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Loss != r.Loss {
			t.Fatalf("probe at step %d has NaN loss", r.Minibatch)
		}
	}
}

// TestReplicaSparsityProbe pins the probe surface to the same
// replica-count independence as the weights: a probe capture means "the
// latest forward pass", a single executor's latest shard is S-1, and the
// group must report the replica that ran that same shard — so the
// Figure-14 sparsity study prints byte-identical numbers at every
// replica count.
func TestReplicaSparsityProbe(t *testing.T) {
	capture := func(replicas int) map[string]float64 {
		g := networks.TinyCNN(2, 4)
		rg := NewReplicaGroup(g, Options{
			Seed: 42, Pool: bufpool.New(),
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		}, ReplicaConfig{Replicas: replicas, Shards: 4})
		defer rg.Close()
		rg.SetSparsityProbe(true)
		d := NewDataset(4, 3, 16, 0.3, 7)
		for step := 0; step < 5; step++ {
			x, labels := d.Batch(rg.Batch())
			rg.Step(x, labels, 0.05)
		}
		return rg.ReLUSparsities()
	}
	want := capture(1)
	if len(want) == 0 {
		t.Fatal("probe captured nothing")
	}
	for _, replicas := range []int{2, 4} {
		got := capture(replicas)
		if len(got) != len(want) {
			t.Fatalf("replicas=%d captured %d layers, want %d", replicas, len(got), len(want))
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("replicas=%d %s sparsity = %v, want %v", replicas, name, got[name], v)
			}
		}
	}
}
