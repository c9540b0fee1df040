package train

// Cancellation-path tests: the retry backoff must abort the moment the
// context is cancelled (not after sleeping out the full delay), a
// deadline must stop a run within one step's latency, and engine Close
// must be idempotent and concurrent-safe.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/parallel"
)

// TestBackoffAbortsOnCancel pins satellite: with every encode failing,
// RunRecoverable sits in retry backoff; cancelling the context must
// return immediately — not after the multi-second backoff — with an
// error that wraps ctx.Err() and names the last failure cause.
func TestBackoffAbortsOnCancel(t *testing.T) {
	g := smallNet(8)
	inj := faults.New(faults.Config{Seed: 1, EncodeFailRate: 1})
	e := NewExecutor(g, Options{Seed: 3, Faults: inj, Integrity: true,
		Encodings: encoding.Analyze(g, encoding.Lossless())})
	d := NewDataset(4, 2, 8, 0.3, 2)
	ctx, cancel := context.WithCancel(context.Background())

	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := RunRecoverable(ctx, e, d,
		RunConfig{Minibatch: 8, Steps: 5, LR: 0.05},
		RecoveryConfig{MaxRetries: 100, BackoffBase: 10 * time.Second, BackoffMax: 10 * time.Second})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("run completed despite every encode failing")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "last cause") {
		t.Fatalf("err %q does not name the last failure cause", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the 10s backoff was slept out", elapsed)
	}
}

// TestDeadlineStopsRun pins the deadline path: an expired deadline stops
// the loop with a wrapped DeadlineExceeded.
func TestDeadlineStopsRun(t *testing.T) {
	e := NewExecutor(smallNet(8), Options{Seed: 3})
	d := NewDataset(4, 2, 8, 0.3, 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(30*time.Millisecond))
	defer cancel()
	_, err := RunContext(ctx, e, d, RunConfig{Minibatch: 8, Steps: 1 << 30, LR: 0.05})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestInjectedSleepStillChecksContext pins that a test-injected Sleep
// (which cannot observe the context) is still followed by a context
// check, so cancellation aborts between retries.
func TestInjectedSleepStillChecksContext(t *testing.T) {
	g := smallNet(8)
	inj := faults.New(faults.Config{Seed: 1, EncodeFailRate: 1})
	e := NewExecutor(g, Options{Seed: 3, Faults: inj, Integrity: true,
		Encodings: encoding.Analyze(g, encoding.Lossless())})
	d := NewDataset(4, 2, 8, 0.3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	slept := 0
	_, _, err := RunRecoverable(ctx, e, d,
		RunConfig{Minibatch: 8, Steps: 5, LR: 0.05},
		RecoveryConfig{MaxRetries: 100, Sleep: func(time.Duration) {
			slept++
			cancel()
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if slept != 1 {
		t.Fatalf("retried %d times after cancellation, want exactly 1 sleep", slept)
	}
}

// TestReplicaGroupCloseIdempotentConcurrent closes a pooled replica
// group from many goroutines at once: pooled buffers must be released
// exactly once (a double release panics in the pool) and every call must
// return.
func TestReplicaGroupCloseIdempotentConcurrent(t *testing.T) {
	pool := bufpool.New()
	rg := NewReplicaGroup(smallNet(8), Options{Seed: 3, Pool: pool}, ReplicaConfig{Replicas: 2, Shards: 4})
	d := NewDataset(4, 2, 8, 0.3, 2)
	x, labels := d.Batch(rg.Batch())
	rg.Step(x, labels, 0.05)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rg.Close()
		}()
	}
	wg.Wait()
	rg.Close() // and once more, sequentially
	if got := pool.Stats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d bytes after Close", got)
	}
}

// TestExecutorReleaseBuffersIdempotent releases a pooled executor's
// buffers twice; the second call must be a no-op, not a double-recycle.
func TestExecutorReleaseBuffersIdempotent(t *testing.T) {
	pool := bufpool.New()
	e := NewExecutor(smallNet(8), Options{Seed: 3, Pool: pool})
	d := NewDataset(4, 2, 8, 0.3, 2)
	x, labels := d.Batch(8)
	e.Step(x, labels, 0.05)
	e.Close()
	e.Close()
	if got := pool.Stats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d bytes after release", got)
	}
}

// TestCancelBetweenForwardAndBackward pins the window the forward-time
// schedule opens: when a step is cancelled after Forward, every retired map
// already sits encoded in the store with its future armed, and Backward
// never runs to drain them. The futures own no decode target yet (that is
// taken when a fetch starts), so Close returns every pooled byte, disarms
// them and empties the store — and the executor's next step is bit-identical
// to that of one which was never interrupted.
func TestCancelBetweenForwardAndBackward(t *testing.T) {
	withCodec(t, encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 768})
	mk := func() (*Executor, *bufpool.Pool) {
		g := richNet(8)
		pool := bufpool.New()
		return NewExecutor(g, Options{
			Seed: 17, Pool: pool, Integrity: true,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		}), pool
	}
	e, pool := mk()
	ref, _ := mk()
	defer ref.Close()
	d := NewDataset(4, 2, 8, 0.3, 18)
	x0, l0 := d.Batch(8)
	x1, l1 := d.Batch(8)
	e.Step(x0, l0, 0.05)
	ref.Step(x0, l0, 0.05)
	snap := e.Snapshot() // dropout RNG and batch-norm statistics advance in Forward

	// TryStep polls at step entry, after Forward and after Backward: one
	// clean poll cancels exactly between Forward and Backward.
	e.SetContext(&countdownCtx{Context: context.Background(), n: 1})
	_, _, err := e.TryStep(x1, l1, 0.05)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "after forward") {
		t.Fatalf("err = %v, want a cancellation after forward", err)
	}
	if e.nFutures == 0 || e.StashStore().Stats().HotBytes == 0 {
		t.Fatal("Forward retired nothing; the window under test never opened")
	}
	for i := range e.futures {
		if f := &e.futures[i]; f.armed && f.dst != nil {
			t.Fatalf("armed future of %q owns a decode target before any fetch started", f.node)
		}
	}
	e.Close()
	if got := pool.Stats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d bytes after Close", got)
	}
	noFutureArmed(t, e)
	if got := e.StashStore().Stats().HotBytes; got != 0 {
		t.Fatalf("store still holds %d bytes after Close", got)
	}

	e.SetContext(nil)
	e.Restore(snap)
	loss, errs := e.Step(x1, l1, 0.05)
	refLoss, refErrs := ref.Step(x1, l1, 0.05)
	if loss != refLoss || errs != refErrs {
		t.Fatalf("step after the cancelled one: loss %v errs %d, uninterrupted %v %d", loss, errs, refLoss, refErrs)
	}
	paramsBitsEqual(t, flatParams(e), flatParams(ref), "step after the cancelled one vs an uninterrupted run")
	e.Close()
}
