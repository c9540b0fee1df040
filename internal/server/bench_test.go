package server

import (
	"context"
	"runtime"
	"testing"

	"gist/internal/race"
)

// BenchmarkServedStep drains in-process jobs through Submit and Subscribe
// and reports the server's allocations per training step: each op submits
// an unencoded and a degradable fp16 job under a budget that holds one of
// them at a time, so the second queues and is re-planned, then consumes
// both step streams to their end. Each op runs on a server of its own, as
// each serve_mix epoch does, so its first job of each plan key misses the
// server's plan memo; only the drain is counted, not New or Shutdown. The
// jobs checkpoint periodically, so the save path is on the profile too.
// `make profile-serve` lists its top allocation sites.
func BenchmarkServedStep(b *testing.B) {
	if race.Enabled {
		b.Skip("the race detector allocates on its own")
	}
	const steps = 40
	specs := []JobSpec{
		{Name: "plain", Tenant: "a", Steps: steps, Seed: 1, CheckpointEvery: 20},
		{Name: "fp16", Tenant: "b", Steps: steps, Seed: 2, Encoding: "fp16", Technique: "adaptive",
			AllowDegrade: true, CheckpointEvery: 20},
	}
	fp, err := footprint(specs[0].withDefaults(), "none")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	// drain runs one op on a fresh server and returns the mallocs of its
	// drain alone.
	drain := func() uint64 {
		s, err := New(Config{MemBudgetBytes: fp + fp/2, CheckpointDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		subs := make([]*Subscription, len(specs))
		for i, spec := range specs {
			st, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if subs[i], err = s.Subscribe(st.ID, steps); err != nil {
				b.Fatal(err)
			}
		}
		for _, sub := range subs {
			for done := false; !done; {
				select {
				case <-sub.C:
				case <-sub.Done:
					done = true
				}
			}
			sub.Close()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	drain() // warm the shared worker pools
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mallocs += drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(mallocs)/float64(b.N*len(specs)*steps), "allocs/step")
}
