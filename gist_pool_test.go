package gist_test

import (
	"sync"
	"testing"

	"gist"
	"gist/internal/race"
)

// TestConcurrentPooledTrainers runs two pooled trainers concurrently on the
// process-shared buffer pool and checks each one's training trajectory is
// bit-identical to a solo unpooled reference, with every step after the
// first served from the trainer's slab. Under -race this doubles as the
// facade-level data-race check for the shared pool's accounting (both
// trainers' arenas and codec scratch move its counters).
func TestConcurrentPooledTrainers(t *testing.T) {
	const steps = 12

	run := func(opts ...gist.TrainerOption) []float64 {
		all := append([]gist.TrainerOption{
			gist.WithEncodings(gist.LossyLossless(gist.FP16)),
			gist.WithSeed(3),
		}, opts...)
		tr := gist.NewTrainer(gist.TinyCNN(8, 4), all...)
		d := gist.NewDataset(4, 3, 16, 0.4, 5)
		losses := make([]float64, steps)
		for i := range losses {
			x, labels := d.Batch(8)
			loss, _, err := tr.Step(x, labels, 0.05)
			if err != nil {
				t.Errorf("step %d: %v", i, err)
				return nil
			}
			losses[i] = loss
		}
		if st := tr.PoolStats(); len(opts) > 0 && st.Hits == 0 {
			t.Errorf("pooled trainer never served a map from its slab: %+v", st)
		}
		return losses
	}

	want := run() // unpooled reference

	var wg sync.WaitGroup
	got := make([][]float64, 2)
	for r := range got {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = run(gist.WithPooling()) // shared pool by default
		}(r)
	}
	wg.Wait()

	for r, losses := range got {
		if losses == nil {
			t.Fatalf("trainer %d failed", r)
		}
		for i, l := range losses {
			if l != want[i] {
				t.Fatalf("trainer %d step %d: pooled loss %v != unpooled %v", r, i, l, want[i])
			}
		}
	}
}

// TestPooledStepAllocsWithSink pins what a pooled step allocates once a
// telemetry sink is attached — the job server's configuration — and that an
// inference forward allocates nothing at all. The step's stash-memory
// accumulator is executor-owned storage: held behind a per-step pointer it
// escapes and costs three allocations a step (6 and 77 here), which showed
// as +3..4 % allocs_per_step on the benchmark's serve_mix workload. The
// codec resolves its instruments once per sink, operation and technique and
// the decode futures build their span argument only under tracing (73
// encoded before both). The memory sample resolves each technique's two
// byte counters once per sink (4 plain and 6 encoded before, two name
// builds per held technique), and the step span builds its argument only
// under tracing (2 before). The sample's per-technique rows are
// executor-owned too, copied by the sink into its own last sample (1 plain
// and 1 encoded before), so a step with a sink allocates nothing.
func TestPooledStepAllocsWithSink(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		name    string
		encoded bool
	}{
		{"plain", false},
		{"encoded", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := []gist.TrainerOption{
				gist.WithSeed(3), gist.WithPooling(gist.NewBufferPool()), gist.WithTelemetry(gist.NewTelemetry()),
			}
			if c.encoded {
				opts = append(opts, gist.WithEncodings(gist.LossyLossless(gist.FP16)))
			}
			tr := gist.NewTrainer(gist.TinyCNN(8, 4), opts...)
			defer tr.Close()
			x, labels := gist.NewDataset(4, 3, 16, 0.4, 5).Batch(8)
			for i := 0; i < 5; i++ { // record and lay out the step arena
				if _, _, err := tr.Step(x, labels, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(50, func() { tr.Step(x, labels, 0.05) }); got != 0 {
				t.Errorf("a step allocates %.2f times, want 0", got)
			}
			if got := testing.AllocsPerRun(50, func() { tr.Eval(x, labels) }); got != 0 {
				t.Errorf("an inference forward allocates %.2f times, want 0", got)
			}
		})
	}
}
