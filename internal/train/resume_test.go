package train

// Pause→resume round-trip tests: a run interrupted at an arbitrary step
// phase boundary (step entry, mid-forward/encode, mid-backward, or
// mid-shard/reduce for a replica group), checkpointed, and resumed on a
// fresh executor must produce weights byte-identical to an uninterrupted
// run at the same seed — even with fault injection active on both runs.
// The countdown context makes the cancellation phase deterministic: the
// engine only observes cancellation through ctx.Err(), so flipping Err
// after exactly N polls lands the abort on the N-th phase boundary.

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"gist/internal/encoding"
	"gist/internal/faults"
)

// countdownCtx is a context whose Err flips to Canceled after n polls.
// Done never fires (the engines poll Err at phase boundaries, which is
// the path under test).
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

func resumeFaults() *faults.Injector {
	// Detected faults only: every injected failure is caught and retried,
	// so committed state matches a fault-free run bit-for-bit.
	return faults.New(faults.Config{Seed: 9, BitFlipRate: 0.02, EncodeFailRate: 0.02, DecodeFailRate: 0.02})
}

// newResumeExec builds an executor with lossless stash encodings and a
// fresh injector, so the injected encode/decode/flip faults actually hit
// the stash pipeline.
func newResumeExec() *Executor {
	g := smallNet(8)
	return NewExecutor(g, Options{Seed: 7, Faults: resumeFaults(), Integrity: true,
		Encodings: encoding.Analyze(g, encoding.Lossless())})
}

// TestPauseResumeByteIdenticalAtEveryPhase interrupts a recoverable run
// at every step phase boundary across several steps (the countdown lands
// on step entry, post-forward — i.e. mid-encode for stashed layers — and
// post-backward in rotation), checkpoints, resumes on a fresh executor
// and dataset, and requires the final weights to be byte-identical to
// the uninterrupted reference.
func TestPauseResumeByteIdenticalAtEveryPhase(t *testing.T) {
	const steps = 10
	cfg := RunConfig{Minibatch: 8, Steps: steps, LR: 0.05, ProbeEvery: 5}
	rcfg := RecoveryConfig{MaxRetries: 8}

	ref := newResumeExec()
	dRef := NewDataset(4, 2, 8, 0.3, 2)
	if _, _, err := RunRecoverable(context.Background(), ref, dRef, cfg, rcfg); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := flatParams(ref)

	dir := t.TempDir()
	// Counts 5..16 sweep the poll boundaries of steps 2-4: each step of a
	// clean run consumes 4 Err polls (loop guard, step entry,
	// post-forward, post-backward), so consecutive counts land the cancel
	// on consecutive phases. Injected retries shift the landing phase but
	// never off a boundary.
	for cut := 5; cut <= 16; cut++ {
		e1 := newResumeExec()
		d1 := NewDataset(4, 2, 8, 0.3, 2)
		ctx := &countdownCtx{Context: context.Background(), n: cut}
		_, _, err := RunRecoverable(ctx, e1, d1, cfg, rcfg)
		if err == nil {
			t.Fatalf("cut=%d: interrupted run completed", cut)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut=%d: err = %v, want context.Canceled", cut, err)
		}
		done := e1.ResumeStep()
		if done >= steps {
			t.Fatalf("cut=%d: nothing left to resume (completed %d)", cut, done)
		}
		path := filepath.Join(dir, "ckpt")
		if err := e1.SaveCheckpointFile(path); err != nil {
			t.Fatalf("cut=%d: save: %v", cut, err)
		}

		e2 := newResumeExec()
		if err := e2.LoadCheckpointFile(path); err != nil {
			t.Fatalf("cut=%d: load: %v", cut, err)
		}
		if e2.ResumeStep() != done {
			t.Fatalf("cut=%d: resume step %d, want %d", cut, e2.ResumeStep(), done)
		}
		d2 := NewDataset(4, 2, 8, 0.3, 2)
		d2.Skip(8, done)
		if _, _, err := RunRecoverable(context.Background(), e2, d2, cfg, rcfg); err != nil {
			t.Fatalf("cut=%d: resumed run: %v", cut, err)
		}
		got := flatParams(e2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut=%d (paused after step %d): weight[%d] = %x, want %x",
					cut, done, i, got[i], want[i])
			}
		}
	}
}

// TestPauseResumeReplicaGroupMidReduce cancels a replica-group run with
// a countdown context so the abort lands inside the shard/reduce
// machinery, then resumes a fresh group from the checkpoint (loaded into
// every replica) and requires byte-identical weights on every replica.
func TestPauseResumeReplicaGroupMidReduce(t *testing.T) {
	const steps, shards = 8, 4
	mb := 8 * shards
	cfg := RunConfig{Minibatch: mb, Steps: steps, LR: 0.05, ProbeEvery: 4}

	newGroup := func() *ReplicaGroup {
		return NewReplicaGroup(smallNet(8), Options{Seed: 7}, ReplicaConfig{Replicas: shards, Shards: shards})
	}

	ref := newGroup()
	defer ref.Close()
	dRef := NewDataset(4, 2, 8, 0.3, 2)
	if _, err := RunContext(context.Background(), ref, dRef, cfg); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := flatParams(ref.Executor())

	// Each clean group step consumes polls at the loop guard, the group
	// step entry, and one per shard attempt — sweep cuts so cancellation
	// lands mid-shard (i.e. with some shards done and the reduce ahead).
	for cut := 3; cut <= 14; cut++ {
		g1 := newGroup()
		d1 := NewDataset(4, 2, 8, 0.3, 2)
		ctx := &countdownCtx{Context: context.Background(), n: cut}
		_, err := RunContext(ctx, g1, d1, cfg)
		if err == nil {
			g1.Close()
			t.Fatalf("cut=%d: interrupted run completed", cut)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut=%d: err = %v, want context.Canceled", cut, err)
		}
		done := g1.ResumeStep()
		if done >= steps {
			g1.Close()
			t.Fatalf("cut=%d: nothing left to resume (completed %d)", cut, done)
		}
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := g1.Executor().SaveCheckpointFile(path); err != nil {
			t.Fatalf("cut=%d: save: %v", cut, err)
		}
		g1.Close()

		g2 := newGroup()
		if err := LoadCheckpointFile(g2, path); err != nil {
			t.Fatalf("cut=%d: load: %v", cut, err)
		}
		if g2.step != done {
			t.Fatalf("cut=%d: group step clock %d after load, want %d", cut, g2.step, done)
		}
		d2 := NewDataset(4, 2, 8, 0.3, 2)
		d2.Skip(mb, done)
		if _, err := RunContext(context.Background(), g2, d2, cfg); err != nil {
			t.Fatalf("cut=%d: resumed run: %v", cut, err)
		}
		for r, e := range g2.Executors() {
			got := flatParams(e)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cut=%d (paused after step %d): replica %d weight[%d] = %x, want %x",
						cut, done, r, i, got[i], want[i])
				}
			}
		}
		g2.Close()
	}
}

// TestCheckpointV3RoundTripMomentaAndRNG pins the v3 payload: momenta,
// RNG stream position and the completed-step count all survive a
// save/load, so the first resumed step matches the uninterrupted run
// even when momentum and dropout state matter.
func TestCheckpointV3RoundTripMomentaAndRNG(t *testing.T) {
	e1 := NewExecutor(smallNet(8), Options{Seed: 3})
	d := NewDataset(4, 2, 8, 0.3, 5)
	cfg := RunConfig{Minibatch: 8, Steps: 6, LR: 0.05, ProbeEvery: 3}
	Run(e1, d, cfg)
	e1.SetResumeStep(6)
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := e1.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}

	e2 := NewExecutor(smallNet(8), Options{Seed: 99}) // divergent seed: load must overwrite everything
	if err := e2.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if e2.ResumeStep() != 6 {
		t.Fatalf("resume step %d, want 6", e2.ResumeStep())
	}
	// One more identical step on both: requires equal params AND momenta
	// AND RNG state.
	d1 := NewDataset(4, 2, 8, 0.3, 5)
	d1.Skip(8, 6)
	d2 := NewDataset(4, 2, 8, 0.3, 5)
	d2.Skip(8, 6)
	x1, l1 := d1.Batch(8)
	x2, l2 := d2.Batch(8)
	e1.Step(x1, l1, 0.05)
	e2.Step(x2, l2, 0.05)
	p1, p2 := flatParams(e1), flatParams(e2)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("post-resume step diverged at weight[%d]: %x vs %x", i, p1[i], p2[i])
		}
	}
}
