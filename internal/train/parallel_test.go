package train

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/telemetry"
)

// withCodec installs a default codec for the duration of a test.
func withCodec(t *testing.T, c encoding.Codec) {
	t.Helper()
	encoding.SetDefaultCodec(c)
	t.Cleanup(func() { encoding.SetDefaultCodec(encoding.Codec{}) })
}

// TestParallelBackwardMatchesSerial is the executor-level determinism
// property: encoded training with async decode and chunk-parallel codecs
// produces step-for-step identical losses and bit-identical parameters to
// the serial pipeline, for every worker count.
func TestParallelBackwardMatchesSerial(t *testing.T) {
	const steps, mb = 6, 8
	run := func(workers int) (losses []float64, exec *Executor) {
		// Small chunks so the tiny net's 2048-element feature maps really
		// split into multiple chunks.
		encoding.SetDefaultCodec(encoding.Codec{Pool: parallel.NewPool(workers), ChunkElems: 768})
		g := smallNet(mb)
		a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
		e := NewExecutor(g, Options{Seed: 33, Encodings: a, Integrity: true})
		d := NewDataset(4, 2, 8, 0.3, 34)
		for i := 0; i < steps; i++ {
			x, l := d.Batch(mb)
			loss, _ := e.Step(x, l, 0.05)
			losses = append(losses, loss)
		}
		return losses, e
	}
	t.Cleanup(func() { encoding.SetDefaultCodec(encoding.Codec{}) })

	serialLosses, serialExec := run(1)
	for _, w := range []int{2, 4} {
		losses, exec := run(w)
		for i := range serialLosses {
			if losses[i] != serialLosses[i] {
				t.Fatalf("workers=%d: step %d loss %v, serial %v", w, i, losses[i], serialLosses[i])
			}
		}
		for _, n := range serialExec.G.Nodes {
			ps, qs := serialExec.params[n.ID], exec.params[n.ID]
			for j := range ps {
				if !ps[j].Equal(qs[j]) {
					t.Fatalf("workers=%d: %s param %d diverged from serial", w, n.Name, j)
				}
			}
		}
	}
}

// TestConcurrentExecutorsShareOnePool trains several executors at once on
// the shared worker pool — the -race workload for the decode futures, the
// pool semaphore and the codec kernels — and checks same-seed executors
// stay bit-identical despite contending for the same workers.
func TestConcurrentExecutorsShareOnePool(t *testing.T) {
	parallel.SetSharedWorkers(4)
	t.Cleanup(func() { parallel.SetSharedWorkers(0) })
	withCodec(t, encoding.Codec{ChunkElems: 768}) // nil Pool → shared

	const replicas, steps, mb = 4, 4, 8
	execs := make([]*Executor, replicas)
	var wg sync.WaitGroup
	errs := make(chan error, replicas)
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := smallNet(mb)
			a := encoding.Analyze(g, encoding.Lossless())
			e := NewExecutor(g, Options{Seed: 55, Encodings: a, Integrity: true})
			d := NewDataset(4, 2, 8, 0.3, 56)
			for i := 0; i < steps; i++ {
				x, l := d.Batch(mb)
				if _, _, err := e.TryStep(x, l, 0.05); err != nil {
					errs <- fmt.Errorf("replica %d step %d: %w", r, i, err)
					return
				}
			}
			execs[r] = e
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for r := 1; r < replicas; r++ {
		for _, n := range execs[0].G.Nodes {
			ps, qs := execs[0].params[n.ID], execs[r].params[n.ID]
			for j := range ps {
				if !ps[j].Equal(qs[j]) {
					t.Fatalf("replica %d: %s param %d diverged from replica 0", r, n.Name, j)
				}
			}
		}
	}
}

// TestStashLifecycleAccounting pins the one stash lifecycle at every corner
// that used to select a different step path — 1 and 4 codec workers, with
// and without a stash budget, with and without fault injection. Fault-free,
// every encoded stash is put in the store once and resolved through its
// future once, so overlap hits + misses and the store's Puts both equal
// steps × decodable stashes. Under faults the future resolves inline during
// stash preparation: every detection surfaces before any gradient
// accumulates (no gradient zeroing) and the counters equal the injector's
// own log.
func TestStashLifecycleAccounting(t *testing.T) {
	const mb, steps = 4, 5
	flips := faults.Config{Seed: 21, BitFlipRate: 0.1, EncodeFailRate: 0.05, DecodeFailRate: 0.05}
	spills := faults.Config{Seed: 22, SpillWriteFailRate: 0.05, SpillReadCorruptRate: 0.05, SpillShortReadRate: 0.05}
	cases := []struct {
		name   string
		budget int64
		faults *faults.Config
	}{
		{"ram", 0, nil},
		{"spill", 1, nil},
		{"ram-flips", 0, &flips},
		{"spill-flips", 1, &flips},
		{"spill-diskfaults", 1, &spills},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				g := smallNet(mb)
				// Lossless leaves the conv/FC inputs unassigned: aliased
				// without a budget, exact dense containers under one.
				a := encoding.Analyze(g, encoding.Lossless())
				decodable := 0
				for _, n := range g.Nodes {
					if a.ByNode[n.ID] != nil || (c.budget > 0 && a.OutputStashed(n)) {
						decodable++
					}
				}
				sink := telemetry.New()
				opts := Options{
					Seed: 1, Encodings: a, Telemetry: sink,
					StashBudget: c.budget, SpillDir: t.TempDir(),
					Codec: &encoding.Codec{Pool: parallel.NewPool(workers), ChunkElems: 768, Tel: sink},
				}
				var inj *faults.Injector
				if c.faults != nil {
					inj = faults.New(*c.faults)
					opts.Faults = inj
				}
				e := NewExecutor(g, opts)
				defer e.Close()
				d := NewDataset(4, 2, 8, 0.3, 7)
				_, report, err := RunRecoverable(context.Background(), e, d,
					RunConfig{Minibatch: mb, Steps: steps, LR: 0.05},
					RecoveryConfig{MaxRetries: 50, Sleep: func(time.Duration) {}})
				if err != nil {
					t.Fatalf("run did not survive: %v", err)
				}

				v := sink.Values()
				if got := v["train.grad_zeroing"]; got != 0 {
					t.Errorf("train.grad_zeroing = %d: a failure surfaced after gradients accumulated", got)
				}
				if inj == nil {
					want := int64(steps * decodable)
					if got := v["train.overlap.hits"] + v["train.overlap.misses"]; got != want {
						t.Errorf("overlap hits+misses = %d, want %d (%d steps × %d stashes)", got, want, steps, decodable)
					}
					if got := e.StashStore().Stats().Puts; got != want {
						t.Errorf("store puts = %d, want %d", got, want)
					}
					return
				}
				counts := inj.Counts()
				if len(inj.Events()) == 0 || report.Retries == 0 {
					t.Fatal("injector fired nothing; the cross-check proved nothing")
				}
				for _, chk := range []struct {
					metric string
					want   int
				}{
					{"train.crc_detected", counts[faults.BitFlip]},
					{"codec.crc.failures", counts[faults.BitFlip]},
					{"train.injected.encode_failures", counts[faults.EncodeFail]},
					{"train.injected.decode_failures", counts[faults.DecodeFail]},
					{"train.spill.write_failures", counts[faults.SpillWriteFail]},
					{"train.spill.read_failures", counts[faults.SpillReadCorrupt] + counts[faults.SpillShortRead]},
				} {
					if got := v[chk.metric]; got != int64(chk.want) {
						t.Errorf("%s = %d, injector log says %d", chk.metric, got, chk.want)
					}
				}
			})
		}
	}
}

// TestFailBackwardZeroesGradients pins the TryStep contract for
// mid-backward stash failures: every accumulated gradient is zeroed and
// corruption is counted before the error surfaces.
func TestFailBackwardZeroesGradients(t *testing.T) {
	e := NewExecutor(smallNet(2), Options{Seed: 3})
	for _, gs := range e.grads {
		for _, g := range gs {
			g.Fill(1)
		}
	}
	wrapped := fmt.Errorf("train: stash %q: %w", "conv1", encoding.ErrCorruptStash)
	if err := e.failBackward(wrapped); !errors.Is(err, encoding.ErrCorruptStash) {
		t.Fatalf("failBackward did not propagate the error: %v", err)
	}
	if e.Robust.CRCFailures != 1 {
		t.Fatalf("CRCFailures = %d, want 1", e.Robust.CRCFailures)
	}
	for _, gs := range e.grads {
		for _, g := range gs {
			for _, v := range g.Data {
				if v != 0 {
					t.Fatal("gradient not zeroed after mid-backward failure")
				}
			}
		}
	}
}

// TestFaultInjectionStillDetectedWithParallelCodec re-runs a PR 1-style
// corruption scenario on top of the chunked codec: the injector flips a
// bit, the (synchronous, attribution-preserving) decode path catches it,
// and the step reports a CRC failure without applying an update.
func TestFaultInjectionStillDetectedWithParallelCodec(t *testing.T) {
	withCodec(t, encoding.Codec{Pool: parallel.NewPool(4), ChunkElems: 768})
	g := smallNet(4)
	a := encoding.Analyze(g, encoding.Lossless())
	inj := faults.New(faults.Config{Seed: 5, BitFlipRate: 1})
	e := NewExecutor(g, Options{Seed: 6, Encodings: a, Faults: inj})
	d := NewDataset(4, 2, 8, 0.3, 7)
	x, l := d.Batch(4)
	_, _, err := e.TryStep(x, l, 0.05)
	if err == nil {
		t.Fatal("injected corruption went undetected")
	}
	if !errors.Is(err, encoding.ErrCorruptStash) {
		t.Fatalf("error %v does not wrap ErrCorruptStash", err)
	}
	if e.Robust.CRCFailures == 0 {
		t.Fatal("CRC failure not counted")
	}
	// The chunked seal should also localize which chunk the flip hit.
	if _, ok := encoding.CorruptedChunk(err); !ok {
		t.Fatalf("no chunk localization in %v", err)
	}
}
