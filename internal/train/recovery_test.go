package train

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/tensor"
)

// bnNet builds a small net with batch norm so snapshot/restore covers the
// running-statistics path too.
func bnNet(mb int) *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(mb, 2, 8, 8))
	c1 := g.MustAdd("conv1", layers.NewConv2D(4, 3, 1, 1), in)
	b1 := g.MustAdd("bn1", layers.NewBatchNorm(), c1)
	r1 := g.MustAdd("relu1", layers.NewReLU(), b1)
	fc := g.MustAdd("fc", layers.NewFC(4), r1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return g
}

func paramsOf(e *Executor) map[string][][]float32 {
	out := map[string][][]float32{}
	for _, n := range e.G.Nodes {
		for _, p := range e.Params(n) {
			out[n.Name] = append(out[n.Name], append([]float32(nil), p.Data...))
		}
		if bn, ok := n.Op.(*layers.BatchNormOp); ok {
			out[n.Name+"/mean"] = [][]float32{append([]float32(nil), bn.RunningMean...)}
			out[n.Name+"/var"] = [][]float32{append([]float32(nil), bn.RunningVar...)}
		}
	}
	return out
}

func TestSnapshotRestoreReplaysBitIdentically(t *testing.T) {
	g := bnNet(4)
	e := NewExecutor(g, Options{Seed: 5})
	d := NewDataset(4, 2, 8, 0.3, 6)
	// Fixed batches so both replays see identical data.
	var bx []*tensor.Tensor
	var bl [][]int
	for i := 0; i < 3; i++ {
		x, l := d.Batch(4)
		bx = append(bx, x)
		bl = append(bl, l)
	}

	snap := e.Snapshot()
	var losses1 []float64
	for i := 0; i < 3; i++ {
		loss, _ := e.Step(bx[i], bl[i], 0.05)
		losses1 = append(losses1, loss)
	}
	after1 := paramsOf(e)

	e.Restore(snap)
	var losses2 []float64
	for i := 0; i < 3; i++ {
		loss, _ := e.Step(bx[i], bl[i], 0.05)
		losses2 = append(losses2, loss)
	}
	after2 := paramsOf(e)

	if !reflect.DeepEqual(losses1, losses2) {
		t.Fatalf("replay losses differ: %v vs %v", losses1, losses2)
	}
	if !reflect.DeepEqual(after1, after2) {
		t.Fatal("replay parameters differ")
	}
}

func TestRunRecoverableCleanMatchesRun(t *testing.T) {
	cfg := RunConfig{Minibatch: 8, Steps: 60, LR: 0.05, ProbeEvery: 20}
	base := Run(NewExecutor(smallNet(8), Options{Seed: 3}), NewDataset(4, 2, 8, 0.3, 7), cfg)
	recs, report, err := RunRecoverable(context.Background(), NewExecutor(smallNet(8), Options{Seed: 3}),
		NewDataset(4, 2, 8, 0.3, 7), cfg, RecoveryConfig{})
	if err != nil {
		t.Fatalf("clean RunRecoverable: %v", err)
	}
	if !reflect.DeepEqual(base, recs) {
		t.Fatalf("clean recoverable run diverged from Run:\n%v\n%v", base, recs)
	}
	if report.Retries != 0 || report.RecoveredSteps != 0 || report.GaveUpStep != 0 {
		t.Fatalf("clean run reported recovery activity: %+v", report)
	}
	if report.Robust != (RobustnessStats{}) {
		t.Fatalf("clean run reported robustness events: %+v", report.Robust)
	}
	if report.FaultCounts != nil {
		t.Fatal("clean run has no injector, FaultCounts must be nil")
	}
}

// failedAttempts counts the step attempts the injector's log shows a
// fault in: its distinct (step, shard, attempt) keys.
func failedAttempts(inj *faults.Injector) int {
	keys := map[faults.Key]bool{}
	for _, ev := range inj.Events() {
		keys[ev.Key] = true
	}
	return len(keys)
}

func TestRunRecoverableSurvivesInjectedFaults(t *testing.T) {
	g := smallNet(4)
	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	inj := faults.New(faults.Config{
		Seed:           99,
		BitFlipRate:    0.06,
		EncodeFailRate: 0.03,
		DecodeFailRate: 0.03,
	})
	e := NewExecutor(g, Options{Seed: 9, Encodings: a, Faults: inj})
	d := NewDataset(4, 2, 8, 0.3, 13)

	var slept []time.Duration
	recs, report, err := RunRecoverable(context.Background(), e, d,
		RunConfig{Minibatch: 4, Steps: 40, LR: 0.05, ProbeEvery: 10},
		RecoveryConfig{MaxRetries: 25, Sleep: func(d time.Duration) { slept = append(slept, d) }})
	if err != nil {
		t.Fatalf("run did not survive: %v\nreport:\n%s", err, report)
	}
	if report.Steps != 40 || len(recs) != 4 {
		t.Fatalf("steps %d, records %d", report.Steps, len(recs))
	}

	counts := inj.Counts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("injector fired no faults; raise the rates or change the seed")
	}
	// Cross-check: the executor must have seen exactly what the injector
	// logged. Every bit flip must have been detected by the CRC seal.
	if got, want := report.Robust.CRCFailures, int64(counts[faults.BitFlip]); got != want {
		t.Fatalf("CRC detections %d != injected bit flips %d", got, want)
	}
	if got, want := report.Robust.EncodeFailures, int64(counts[faults.EncodeFail]); got != want {
		t.Fatalf("encode failures %d != injected %d", got, want)
	}
	if got, want := report.Robust.DecodeFailures, int64(counts[faults.DecodeFail]); got != want {
		t.Fatalf("decode failures %d != injected %d", got, want)
	}
	// Every injected fault aborts the attempt it hit, and one attempt can
	// take several (its stashes are all flipped before the first is
	// decoded), so the completed run retried exactly the failed attempts.
	if failed := failedAttempts(inj); report.Retries != failed || failed > total {
		t.Fatalf("retries %d, failed attempts %d, injected faults %d\nreport:\n%s",
			report.Retries, failed, total, report)
	}
	if len(slept) != report.Retries {
		t.Fatalf("backoff sleeps %d != retries %d", len(slept), report.Retries)
	}
	if report.RecoveredSteps == 0 || report.RecoveredSteps > report.Retries {
		t.Fatalf("recovered steps %d out of range (retries %d)", report.RecoveredSteps, report.Retries)
	}
	if report.FaultCounts[faults.BitFlip] != counts[faults.BitFlip] {
		t.Fatalf("report fault counts %v != injector %v", report.FaultCounts, counts)
	}
	// The run must still have trained (not diverged into NaN).
	if Diverged(recs, 4) {
		t.Fatal("fault-injected run diverged")
	}
}

// TestRunRecoverableGroupReplaysBitIdentically drives a replica group with
// no shard retry budget through the recoverable loop: every injected fault
// abandons the step, the loop restores each replica's snapshot (batch-norm
// running statistics differ per replica, so one shared snapshot would not
// do), rewinds the group's dropout clock and replays — ending bit-equal to
// the fault-free run of the same group.
func TestRunRecoverableGroupReplaysBitIdentically(t *testing.T) {
	cfg := RunConfig{Minibatch: 8, Steps: 40, LR: 0.05, ProbeEvery: 10}
	run := func(inj *faults.Injector) (*ReplicaGroup, *RecoveryReport) {
		g := bnNet(4)
		rg := NewReplicaGroup(g, Options{Seed: 9, Integrity: true, Faults: inj,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))},
			ReplicaConfig{Replicas: 2, Shards: 2})
		t.Cleanup(rg.Close)
		_, report, err := RunRecoverable(context.Background(), rg, NewDataset(4, 2, 8, 0.3, 13), cfg,
			RecoveryConfig{MaxRetries: 25, Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatalf("run did not survive: %v\nreport:\n%s", err, report)
		}
		return rg, report
	}
	clean, _ := run(nil)
	inj := faults.New(faults.Config{Seed: 99, BitFlipRate: 0.06, EncodeFailRate: 0.03, DecodeFailRate: 0.03})
	faulty, report := run(inj)

	if report.Retries == 0 || report.RecoveredSteps == 0 {
		t.Fatalf("no step was replayed; raise the rates or change the seed: %+v", report)
	}
	counts := inj.Counts()
	if got, want := report.Robust.CRCFailures, int64(counts[faults.BitFlip]); got != want {
		t.Fatalf("CRC detections summed over replicas %d != injected bit flips %d", got, want)
	}
	for _, ev := range inj.Events() {
		if ev.Step == 0 {
			t.Fatalf("event %+v logged outside any step", ev)
		}
	}
	for r, e := range faulty.Executors() {
		if !reflect.DeepEqual(paramsOf(e), paramsOf(clean.Executors()[r])) {
			t.Fatalf("replica %d: parameters or batch-norm statistics differ from the fault-free run", r)
		}
		paramsBitsEqual(t, flatParams(e), flatParams(faulty.Executor()), "replica vs replica 0")
	}
}

func TestRunRecoverableAllocPressureClears(t *testing.T) {
	g := smallNet(4)
	a := encoding.Analyze(g, encoding.Lossless())
	inj := faults.New(faults.Config{Seed: 5, AllocBudgetBytes: 64, AllocFailures: 2})
	e := NewExecutor(g, Options{Seed: 9, Encodings: a, Faults: inj})
	d := NewDataset(4, 2, 8, 0.3, 13)

	_, report, err := RunRecoverable(context.Background(), e, d,
		RunConfig{Minibatch: 4, Steps: 5, LR: 0.05, ProbeEvery: 5},
		RecoveryConfig{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatalf("alloc pressure must clear after 2 failures: %v", err)
	}
	if got := report.Robust.AllocFailures; got != 2 {
		t.Fatalf("alloc failures %d, want 2", got)
	}
	if got := report.FaultCounts[faults.AllocFail]; got != 2 {
		t.Fatalf("injector alloc count %d, want 2", got)
	}
	if report.RecoveredSteps != 1 || report.Retries != 2 {
		t.Fatalf("want step 1 recovered after 2 retries, got %+v", report)
	}
}

func TestRunRecoverableGivesUpAndBacksOff(t *testing.T) {
	g := smallNet(4)
	a := encoding.Analyze(g, encoding.Lossless())
	inj := faults.New(faults.Config{Seed: 5, DecodeFailRate: 1})
	e := NewExecutor(g, Options{Seed: 9, Encodings: a, Faults: inj})
	d := NewDataset(4, 2, 8, 0.3, 13)

	var slept []time.Duration
	_, report, err := RunRecoverable(context.Background(), e, d,
		RunConfig{Minibatch: 4, Steps: 10, LR: 0.05, ProbeEvery: 5},
		RecoveryConfig{
			MaxRetries:  5,
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		})
	if err == nil {
		t.Fatal("permanent fault must exhaust the retry budget")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error should carry the injected cause: %v", err)
	}
	if report.GaveUpStep != 1 {
		t.Fatalf("gave up at step %d, want 1", report.GaveUpStep)
	}
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond,
		4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond,
	}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("backoff schedule %v, want %v (doubling, capped)", slept, want)
	}
	if report.BackoffTotal != 15*time.Millisecond {
		t.Fatalf("backoff total %v, want 15ms", report.BackoffTotal)
	}
	if report.Robust.DecodeFailures != 6 { // initial attempt + 5 retries
		t.Fatalf("decode failures %d, want 6", report.Robust.DecodeFailures)
	}
}

func TestRunRecoverablePeriodicCheckpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	g := smallNet(4)
	e := NewExecutor(g, Options{Seed: 9})
	d := NewDataset(4, 2, 8, 0.3, 13)

	_, report, err := RunRecoverable(context.Background(), e, d,
		RunConfig{Minibatch: 4, Steps: 20, LR: 0.05, ProbeEvery: 5},
		RecoveryConfig{CheckpointPath: path, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointSaves != 4 || report.CheckpointFailures != 0 {
		t.Fatalf("checkpoint saves %d / failures %d, want 4 / 0",
			report.CheckpointSaves, report.CheckpointFailures)
	}
	// The persisted checkpoint must restore into a fresh executor.
	e2 := NewExecutor(smallNet(4), Options{Seed: 1})
	if err := e2.LoadCheckpointFile(path); err != nil {
		t.Fatalf("reload: %v", err)
	}
	for _, n := range e.G.Nodes {
		p1 := e.Params(n)
		p2 := e2.Params(e2.G.Lookup(n.Name))
		for j := range p1 {
			if !p1[j].Equal(p2[j]) {
				t.Fatalf("%s param %d not restored", n.Name, j)
			}
		}
	}
}

// TestRunClocksInjector pins that the loop stamps every step on the
// injector whatever drives it: the first logged event carries the step that
// failed. (RunContext used to leave a single executor's clock at 0, so
// AllocBudgetBytes — a per-step budget — also accumulated over the run.)
func TestRunClocksInjector(t *testing.T) {
	for _, recoverable := range []bool{false, true} {
		g := smallNet(4)
		inj := faults.New(faults.Config{Seed: 3, EncodeFailRate: 0.02})
		e := NewExecutor(g, Options{Seed: 9, Encodings: encoding.Analyze(g, encoding.Lossless()), Faults: inj})
		d := NewDataset(4, 2, 8, 0.3, 13)
		completed, firstFailed := 0, 0
		cfg := RunConfig{Minibatch: 4, Steps: 60, LR: 0.05,
			OnStep: func(step int, _ float64) { completed = step }}
		if recoverable {
			_, _, err := RunRecoverable(context.Background(), e, d, cfg,
				RecoveryConfig{MaxRetries: 25, Sleep: func(time.Duration) {
					if firstFailed == 0 {
						firstFailed = completed + 1
					}
				}})
			if err != nil {
				t.Fatalf("RunRecoverable: %v", err)
			}
		} else {
			_, err := RunContext(context.Background(), e, d, cfg)
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("RunContext must end at the first failed step, got %v", err)
			}
			firstFailed = completed + 1
		}
		evs := inj.Events()
		if len(evs) == 0 || firstFailed < 2 {
			t.Fatalf("recoverable=%v: %d events, first failure at step %d; want one after step 1",
				recoverable, len(evs), firstFailed)
		}
		if evs[0].Step != firstFailed {
			t.Fatalf("recoverable=%v: first event logged at step %d, step %d failed",
				recoverable, evs[0].Step, firstFailed)
		}
	}
}
