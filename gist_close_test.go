package gist_test

// Regression tests for Trainer.Close idempotency: a double or concurrent
// Close must release pooled buffers exactly once (the pool panics on a
// double recycle) and never panic on the replica workers' channels.

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"gist"
)

func runCloseStorm(t *testing.T, tr *gist.Trainer) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Close()
		}()
	}
	wg.Wait()
	tr.Close() // and once more for the sequential double-Close case
}

func TestTrainerCloseIdempotentSingleExecutor(t *testing.T) {
	pool := gist.NewBufferPool()
	tr := gist.NewTrainer(gist.TinyCNN(8, 4), gist.WithPooling(pool))
	d := gist.NewDataset(4, 3, 16, 0.3, 2)
	tr.Run(d, gist.RunConfig{Minibatch: 8, Steps: 3, LR: 0.05})
	runCloseStorm(t, tr)
	if got := tr.PoolStats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d bytes after Close", got)
	}
}

func TestTrainerCloseIdempotentReplicas(t *testing.T) {
	pool := gist.NewBufferPool()
	tr := gist.NewTrainer(gist.TinyCNN(8, 4),
		gist.WithPooling(pool), gist.WithReplicas(2), gist.WithShards(4))
	d := gist.NewDataset(4, 3, 16, 0.3, 2)
	tr.Run(d, gist.RunConfig{Minibatch: tr.Minibatch(), Steps: 3, LR: 0.05})
	runCloseStorm(t, tr)
	if got := tr.PoolStats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d bytes after Close", got)
	}
}

func TestTrainerRunContextCancel(t *testing.T) {
	tr := gist.NewTrainer(gist.TinyCNN(8, 4))
	defer tr.Close()
	d := gist.NewDataset(4, 3, 16, 0.3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, err := tr.RunContext(ctx, d, gist.RunConfig{Minibatch: 8, Steps: 100, LR: 0.05})
	if err == nil {
		t.Fatal("cancelled RunContext returned nil error")
	}
	if len(recs) != 0 {
		t.Fatalf("pre-cancelled run produced %d records", len(recs))
	}
}

// TestTrainerClosesPrivatePool builds, steps and closes 100 trainers with a
// private 2-worker pool on maps that span several codec chunks, so every
// trainer's pool starts its helpers: Close stops them with the trainer's
// stash workers, and the goroutine count ends where it began.
func TestTrainerClosesPrivatePool(t *testing.T) {
	x, labels := gist.NewDataset(4, 4, 64, 0.4, 2).Batch(4)
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		tr := gist.NewTrainer(stashChain(4), gist.WithParallelism(2),
			gist.WithEncodings(gist.LossyLossless(gist.FP16)), gist.WithPooling(gist.NewBufferPool()))
		if _, _, err := tr.Step(x, labels, 0.005); err != nil {
			t.Fatal(err)
		}
		if i == 0 && runtime.NumGoroutine() < base+2+2 {
			t.Fatalf("%d goroutines while a trainer runs, want its 2 helpers and its stash workers above %d", runtime.NumGoroutine(), base)
		}
		tr.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() != base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after 100 trainers closed, want %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
