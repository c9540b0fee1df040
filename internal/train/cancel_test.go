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
