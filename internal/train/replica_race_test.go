package train

import (
	"errors"
	"sync"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/telemetry"
)

// TestReplicaGroupsSharedPoolRace runs two replica groups concurrently on
// one shared buffer pool and one shared codec worker pool, with bit-flip
// fault injection corrupting sealed stashes under both. Its job is to give
// the race detector (make race-hot) the hottest cross-group interleaving
// we support: concurrent arena accounting in the pool, concurrent chunked
// encode/decode/reduce on the worker pool, and concurrent injector and
// telemetry writes. Checks are deliberately light — the value is the
// -race run staying silent.
func TestReplicaGroupsSharedPoolRace(t *testing.T) {
	const steps = 12
	pool := bufpool.New()
	workers := parallel.NewPool(4)
	tel := telemetry.New()

	mkGroup := func(seed uint64) *ReplicaGroup {
		g := networks.TinyCNN(2, 4)
		opts := Options{
			Seed:      seed,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
			Integrity: true,
			Faults:    faults.New(faults.Config{Seed: seed, BitFlipRate: 0.05}),
			Telemetry: tel,
			Codec:     &encoding.Codec{Pool: workers},
			Pool:      pool,
		}
		return NewReplicaGroup(g, opts, ReplicaConfig{Replicas: 2, Shards: 4, MaxRetries: 6})
	}

	groups := []*ReplicaGroup{mkGroup(42), mkGroup(43)}
	var wg sync.WaitGroup
	for i, rg := range groups {
		wg.Add(1)
		go func(i int, rg *ReplicaGroup) {
			defer wg.Done()
			defer rg.Close()
			d := NewDataset(4, 3, 16, 0.3, uint64(100+i))
			for step := 0; step < steps; step++ {
				x, labels := d.Batch(rg.Batch())
				_, _, err := rg.TryStep(x, labels, 0.05)
				if err != nil && !errors.Is(err, ErrStepAbandoned) {
					t.Errorf("group %d step %d: unexpected error %v", i, step, err)
					return
				}
			}
			for k, v := range flatParams(rg.Executor()) {
				if v != v {
					t.Errorf("group %d param %d is NaN", i, k)
					return
				}
			}
		}(i, rg)
	}
	wg.Wait()
}
