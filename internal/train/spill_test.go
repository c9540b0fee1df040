package train

// The spill determinism wall: training through the tiered stash store must
// be bit-identical to the all-in-RAM run at every hot-tier budget, worker
// count and replica count, for plain, lossy-encoded and adaptive stash
// configurations. Placement (evict/prefetch order) is a pure function of
// the liveness analysis and the GSTP round trip is exact, so the budget can
// only change WHERE a stash waits out the forward→backward gap — never the
// bytes that come back.

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/stashstore"
)

// spillTechniques names the stash configurations the matrix covers; nil
// cfg is the plain-FP32 run (the store dense-packs those stashes itself).
func spillTechniques() []struct {
	name string
	cfg  func(g *graph.Graph) *encoding.Analysis
} {
	return []struct {
		name string
		cfg  func(g *graph.Graph) *encoding.Analysis
	}{
		{"plain", func(g *graph.Graph) *encoding.Analysis { return nil }},
		{"fp16", func(g *graph.Graph) *encoding.Analysis {
			return encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
		}},
		{"adaptive", func(g *graph.Graph) *encoding.Analysis {
			cfg := encoding.Lossless()
			cfg.AdaptiveSet = encoding.AdaptiveAll()
			return encoding.Analyze(g, cfg)
		}},
	}
}

// trainSpill trains a replica group through the tiered store and returns
// the final parameters, the per-step losses (both objects of the
// bit-identity claim), and the summed store stats.
func trainSpill(t *testing.T, build func(mb, classes int) *graph.Graph,
	shardBatch, shards, replicas, workers, steps int,
	cfg func(g *graph.Graph) *encoding.Analysis, budget int64,
	spillDir string) ([]float32, []float64, stashstore.Stats) {
	t.Helper()
	const classes = 4
	g := build(shardBatch, classes)
	opts := Options{Seed: 42, Pool: bufpool.New(), StashBudget: budget, SpillDir: spillDir}
	var codecPool *parallel.Pool
	if workers > 1 {
		codecPool = parallel.NewPool(workers)
	}
	opts.Codec = &encoding.Codec{Pool: codecPool}
	opts.Encodings = cfg(g)
	rg := NewReplicaGroup(g, opts, ReplicaConfig{Replicas: replicas, Shards: shards})
	defer rg.Close()

	in := g.InputNodes()[0].OutShape
	d := NewDataset(classes, in[1], in[2], 0.3, 7)
	losses := make([]float64, 0, steps)
	for step := 0; step < steps; step++ {
		x, labels := d.Batch(rg.Batch())
		loss, _ := rg.Step(x, labels, 0.05)
		losses = append(losses, loss)
	}
	var st stashstore.Stats
	for _, e := range rg.Executors() {
		st.Accumulate(e.StashStore().Stats())
		if path := e.StashStore().SpillPath(); budget <= 0 && path != "" {
			t.Fatalf("uncapped store created spill file %s", path)
		}
	}
	return flatParams(rg.Executor()), losses, st
}

func lossesBitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: step %d loss = %x (%g), want %x (%g)", label, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestSpillDeterminism is the headline property: {unlimited RAM, 50% and
// 10% hot-tier budgets} × {1, 4 codec workers} × {1, 2 replicas} all train
// TinyCNN to bit-identical final weights and per-step losses, for each
// stash technique family.
func TestSpillDeterminism(t *testing.T) {
	if race.Enabled {
		t.Skip("bit-exactness matrix; the concurrency it exercises is covered by TestConcurrentFetchHammer under race-hot")
	}
	const shards, shardBatch = 2, 2
	steps := 50
	if testing.Short() {
		steps = 20
	}
	dir := t.TempDir()
	for _, tech := range spillTechniques() {
		t.Run(tech.name, func(t *testing.T) {
			// Reference: no budget — the same lifecycle through an uncapped,
			// file-less store. Encoded stashes all pass through it; the plain
			// run aliases its outputs and never touches it.
			ref, refLosses, refSt := trainSpill(t, networks.TinyCNN,
				shardBatch, shards, 1, 1, steps, tech.cfg, 0, dir)
			if last := refLosses[len(refLosses)-1]; last != last || last > 10 {
				t.Fatalf("reference run diverged: loss %g", last)
			}
			if encoded := tech.name != "plain"; refSt.Evictions != 0 || (refSt.Puts > 0) != encoded {
				t.Fatalf("budget-0 reference store stats %+v (encoded=%t)", refSt, encoded)
			}
			// Probe: store armed but effectively unlimited — measures the
			// peak stash bytes the budgets below are fractions of, and is
			// itself the matrix's "unlimited" arm.
			got, losses, probe := trainSpill(t, networks.TinyCNN,
				shardBatch, shards, 1, 1, steps, tech.cfg, 1<<40, dir)
			paramsBitsEqual(t, got, ref, tech.name+"/unlimited")
			lossesBitsEqual(t, losses, refLosses, tech.name+"/unlimited")
			if probe.Evictions != 0 {
				t.Fatalf("unlimited-budget run spilled %d stashes", probe.Evictions)
			}
			peak := probe.HotPeakBytes
			if peak <= 0 {
				t.Fatalf("probe measured no stash bytes (stats %+v)", probe)
			}
			budgets := []int64{peak / 2, peak / 10}
			if testing.Short() {
				budgets = budgets[1:]
			}
			for _, budget := range budgets {
				if budget < 1 {
					budget = 1
				}
				for _, workers := range []int{1, 4} {
					for _, replicas := range []int{1, 2} {
						got, losses, st := trainSpill(t, networks.TinyCNN,
							shardBatch, shards, replicas, workers, steps, tech.cfg, budget, dir)
						label := tech.name + "/budgeted"
						paramsBitsEqual(t, got, ref, label)
						lossesBitsEqual(t, losses, refLosses, label)
						if st.Evictions == 0 {
							t.Fatalf("%s: budget %d never spilled — not exercising the cold tier", label, budget)
						}
						// Summed per-replica peaks bound simultaneous
						// residency, and each store got budget/replicas.
						if st.HotPeakBytes > budget {
							t.Fatalf("%s: hot peak %d exceeded budget %d", label, st.HotPeakBytes, budget)
						}
					}
				}
			}
		})
	}
	// No spill files survive the groups' Close.
	leaked, err := filepath.Glob(filepath.Join(dir, "gist-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leaked) != 0 {
		t.Fatalf("leaked spill files: %v", leaked)
	}
}

// TestSpillDeterminismTinyVGG repeats the property's interesting corners on
// the deeper network: 10% budget, 4 workers, 1 and 2 replicas, fp16.
func TestSpillDeterminismTinyVGG(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("TinyVGG spill matrix is slow")
	}
	const shards, shardBatch, steps = 2, 1, 50
	dir := t.TempDir()
	fp16 := spillTechniques()[1]
	ref, refLosses, _ := trainSpill(t, networks.TinyVGG,
		shardBatch, shards, 1, 1, steps, fp16.cfg, 0, dir)
	_, _, probe := trainSpill(t, networks.TinyVGG,
		shardBatch, shards, 1, 1, steps, fp16.cfg, 1<<40, dir)
	budget := probe.HotPeakBytes / 10
	for _, replicas := range []int{1, 2} {
		got, losses, st := trainSpill(t, networks.TinyVGG,
			shardBatch, shards, replicas, 4, steps, fp16.cfg, budget, dir)
		paramsBitsEqual(t, got, ref, "tinyvgg")
		lossesBitsEqual(t, losses, refLosses, "tinyvgg")
		if st.Evictions == 0 {
			t.Fatal("tinyvgg: 10% budget never spilled")
		}
	}
}

// TestSpillFaultRecovery drives a budgeted run through injected spill-write
// failures (the ENOSPC transient) and spill-page corruption/short reads,
// and cross-checks the recovery report against the injector's own log:
// every injected spill fault must be detected, attributed and retried, and
// the final weights must match the fault-free budgeted run bit for bit.
func TestSpillFaultRecovery(t *testing.T) {
	const mb, classes, steps = 8, 4, 30
	dir := t.TempDir()

	run := func(inj *faults.Injector) ([]float32, *RecoveryReport) {
		g := networks.TinyCNN(mb, classes)
		a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
		opts := Options{Seed: 42, Encodings: a, StashBudget: 1, SpillDir: dir}
		if inj != nil {
			opts.Faults = inj
			opts.Integrity = true
		}
		e := NewExecutor(g, opts)
		defer e.Close()
		d := NewDataset(classes, 3, 16, 0.3, 7)
		_, report, err := RunRecoverable(context.Background(), e, d,
			RunConfig{Minibatch: mb, Steps: steps, LR: 0.05},
			RecoveryConfig{MaxRetries: 100})
		if err != nil {
			t.Fatalf("recoverable run failed: %v", err)
		}
		return flatParams(e), report
	}

	ref, _ := run(nil)
	inj := faults.New(faults.Config{
		Seed:                 11,
		SpillWriteFailRate:   0.01,
		SpillReadCorruptRate: 0.01,
		SpillShortReadRate:   0.01,
	})
	got, report := run(inj)

	counts := inj.Counts()
	wantWrite := int64(counts[faults.SpillWriteFail])
	wantRead := int64(counts[faults.SpillReadCorrupt] + counts[faults.SpillShortRead])
	if wantWrite+wantRead == 0 {
		t.Fatal("injector fired no spill faults — rates too low for this run")
	}
	if report.Robust.SpillWriteFailures != wantWrite {
		t.Errorf("SpillWriteFailures = %d, injector log says %d",
			report.Robust.SpillWriteFailures, wantWrite)
	}
	if report.Robust.SpillReadFailures != wantRead {
		t.Errorf("SpillReadFailures = %d, injector log says %d",
			report.Robust.SpillReadFailures, wantRead)
	}
	if report.Retries == 0 {
		t.Error("no steps were retried despite injected spill faults")
	}
	paramsBitsEqual(t, got, ref, "fault-injected vs fault-free budgeted")

	// The report renders the spill line.
	if s := report.String(); !strings.Contains(s, "spill:") {
		t.Errorf("report missing spill section:\n%s", s)
	}
}

// TestSpillErrorsWithoutRetryFailTheStep pins the typed-error surface: an
// unretried injected spill-write failure aborts TryStep with
// faults.ErrInjected, and a corrupt page surfaces stashstore.ErrCorruptPage
// — both leave the weights untouched (no partial update).
func TestSpillErrorsWithoutRetryFailTheStep(t *testing.T) {
	const mb, classes = 8, 4
	dir := t.TempDir()
	cases := []struct {
		name string
		cfg  faults.Config
		want error
	}{
		{"write", faults.Config{Seed: 5, SpillWriteFailRate: 1}, faults.ErrInjectedSpillWrite},
		{"corrupt", faults.Config{Seed: 5, SpillReadCorruptRate: 1}, stashstore.ErrCorruptPage},
		{"short", faults.Config{Seed: 5, SpillShortReadRate: 1}, stashstore.ErrCorruptPage},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := networks.TinyCNN(mb, classes)
			a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
			e := NewExecutor(g, Options{
				Seed: 42, Encodings: a, StashBudget: 1, SpillDir: dir,
				Faults: faults.New(c.cfg), Integrity: true,
			})
			defer e.Close()
			before := flatParams(e)
			d := NewDataset(classes, 3, 16, 0.3, 7)
			x, labels := d.Batch(mb)
			_, _, err := e.TryStep(x, labels, 0.05)
			if !errors.Is(err, c.want) {
				t.Fatalf("TryStep err = %v, want %v", err, c.want)
			}
			paramsBitsEqual(t, flatParams(e), before, "weights after failed step")
		})
	}
}

// TestSpillFileLifecycle: Close removes the spill file and the
// executor keeps working afterwards (the store recreates it lazily).
func TestSpillFileLifecycle(t *testing.T) {
	const mb, classes = 8, 4
	dir := t.TempDir()
	g := networks.TinyCNN(mb, classes)
	e := NewExecutor(g, Options{Seed: 42, StashBudget: 1, SpillDir: dir})
	d := NewDataset(classes, 3, 16, 0.3, 7)
	x, labels := d.Batch(mb)
	e.Step(x, labels, 0.05)
	if e.StashStore() == nil || e.StashStore().SpillPath() == "" {
		t.Fatal("budgeted step should have spilled")
	}
	path := e.StashStore().SpillPath()
	e.Close()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill file %s survived Close (err=%v)", path, err)
	}
	// Still trainable after release.
	x, labels = d.Batch(mb)
	e.Step(x, labels, 0.05)
	e.Close()
	leaked, _ := filepath.Glob(filepath.Join(dir, "gist-spill-*"))
	if len(leaked) != 0 {
		t.Fatalf("leaked spill files: %v", leaked)
	}
}
