package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gist/internal/race"
)

// TestForEachCoversEveryIndexOnce checks the core contract across worker
// counts and sizes, including n smaller than the pool and n == 0.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 2, 3, maxProcs, 2 * maxProcs} {
		for _, n := range []int{0, 1, 2, workers - 1, workers, workers + 1, 100, 1001} {
			if n < 0 {
				continue
			}
			p := NewPool(workers)
			counts := make([]atomic.Int32, n)
			p.ForEach(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	if w := p.Workers(); w != 1 {
		t.Fatalf("nil pool workers = %d, want 1", w)
	}
	sum := 0
	p.ForEach(10, func(i int) { sum += i }) // would race if not serial
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
	ran := false
	p.Run(func() { ran = true }) // nil pool runs synchronously
	if !ran {
		t.Fatal("nil pool Run did not run synchronously")
	}
}

func TestZeroWorkersMeansGOMAXPROCS(t *testing.T) {
	if w := NewPool(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0).Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

// TestNestedForEachDoesNotDeadlock pins the deadlock-proofing: tasks already
// occupying every pool slot via Run fan out again with ForEach, which must
// degrade to caller-only execution rather than wait for slots the callers
// transitively hold.
func TestNestedForEachDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go p.Run(func() {
			defer wg.Done()
			p.ForEach(64, func(i int) { total.Add(1) })
		})
	}
	wg.Wait() // deadlock here = failure (test times out)
	if got := total.Load(); got != 8*64 {
		t.Fatalf("nested total = %d, want %d", got, 8*64)
	}
}

// TestGoBoundsConcurrency checks go+Run admits at most Workers() tasks at once.
func TestGoBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for g := 0; g < 4*workers; g++ {
		wg.Add(1)
		go p.Run(func() {
			defer wg.Done()
			cur := running.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			<-gate
			running.Add(-1)
		})
	}
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrent Run tasks = %d, want <= %d", got, workers)
	}
}

// TestForEachAllocs pins what a parallel ForEach call costs the heap: its
// shared state is one recycled object and helpers start without a closure,
// so at steady state a call allocates nothing; the budget of two leaves
// room for a garbage collection emptying the state pool mid-measurement.
func TestForEachAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	p := NewPool(2)
	var hits [64]atomic.Int32
	fn := func(i int) { hits[i].Add(1) }
	p.ForEach(len(hits), fn) // warm: the state pool and the goroutine free list
	if a := testing.AllocsPerRun(100, func() { p.ForEach(len(hits), fn) }); a > 2 {
		t.Fatalf("parallel ForEach allocates %v objects per call, want at most 2", a)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 102 {
			t.Fatalf("index %d ran %d times in 102 calls", i, got)
		}
	}
}

// TestForEachStateReuseAfterPanic checks a recycled state carries nothing
// over from a call whose helper panicked.
func TestForEachStateReuseAfterPanic(t *testing.T) {
	p := NewPool(4)
	for round := 0; round < 20; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic in fn was swallowed")
				}
			}()
			p.ForEach(64, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
		var sum atomic.Int64
		p.ForEach(64, func(i int) { sum.Add(int64(i)) })
		if got := sum.Load(); got != 64*63/2 {
			t.Fatalf("round %d: sum after a panicked call = %d, want %d", round, got, 64*63/2)
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	p := NewPool(4)
	defer func() {
		if recover() == nil {
			t.Fatal("panic in fn was swallowed")
		}
	}()
	p.ForEach(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

// TestSharedPoolHammer drives one shared pool from many goroutines at once,
// the -race workload for the semaphore and work-stealing counter.
func TestSharedPoolHammer(t *testing.T) {
	p := Shared()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			out := make([]int, 512)
			p.ForEach(len(out), func(i int) { out[i] = seed + i })
			for i := range out {
				if out[i] != seed+i {
					t.Errorf("goroutine %d: out[%d] = %d", seed, i, out[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSetSharedWorkers(t *testing.T) {
	defer SetSharedWorkers(0)
	SetSharedWorkers(1)
	if w := Shared().Workers(); w != 1 {
		t.Fatalf("Shared().Workers() = %d after SetSharedWorkers(1)", w)
	}
	SetSharedWorkers(0)
	if w := Shared().Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Shared().Workers() = %d after SetSharedWorkers(0), want GOMAXPROCS", w)
	}
}
