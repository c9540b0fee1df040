package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
			p.ForEach(n, Func(func(i int) { counts[i].Add(1) }))
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
	p.ForEach(10, Func(func(i int) { sum += i })) // would race if not serial
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
			p.ForEach(64, Func(func(i int) { total.Add(1) }))
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
// shared state comes from the pool's own free list and its helpers are the
// pool's long-lived goroutines, so a call allocates nothing — also right
// after garbage collections, which would empty a sync.Pool (it keeps its
// objects through one collection, so the test runs two).
func TestForEachAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	p := NewPool(2)
	defer p.Close()
	var hits [64]atomic.Int32
	fn := Func(func(i int) { hits[i].Add(1) })
	p.ForEach(len(hits), fn) // warm: starts the helpers
	if a := testing.AllocsPerRun(100, func() { p.ForEach(len(hits), fn) }); a != 0 {
		t.Fatalf("parallel ForEach allocates %v objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(5, func() { runtime.GC(); runtime.GC(); p.ForEach(len(hits), fn) }); a != 0 {
		t.Fatalf("parallel ForEach allocates %v objects per call after a collection, want 0", a)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 108 {
			t.Fatalf("index %d ran %d times in 108 calls", i, got)
		}
	}
}

// baseGoroutines returns the goroutine count once it has held still for
// 10 ms, so goroutines an earlier test is still ending do not skew it.
func baseGoroutines() int {
	n := runtime.NumGoroutine()
	for still := time.Now(); time.Since(still) < 10*time.Millisecond; time.Sleep(time.Millisecond) {
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		}
	}
	return n
}

// settleGoroutines waits until the process runs want goroutines.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", when, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHelpersLifecycle pins the helpers' lifetime: none before the first
// parallel ForEach, Workers() of them after it, none after Close — which
// returns only once they have exited — and ForEach still covers every
// index on its caller alone after Close.
func TestHelpersLifecycle(t *testing.T) {
	const workers = 3
	base := baseGoroutines()
	p := NewPool(workers)
	p.Run(func() {})
	settleGoroutines(t, base, "before the first ForEach")
	var sum atomic.Int64
	p.ForEach(64, Func(func(i int) { sum.Add(int64(i)) }))
	settleGoroutines(t, base+workers, "after the first ForEach")
	p.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close returned, want %d", n, base)
	}
	p.Close() // idempotent
	p.ForEach(64, Func(func(i int) { sum.Add(int64(i)) }))
	p.Run(func() {})
	if got := sum.Load(); got != 2*64*63/2 {
		t.Fatalf("sum %d, want %d", got, 2*64*63/2)
	}
	settleGoroutines(t, base, "closed pool after another ForEach")
	var nilPool *Pool
	nilPool.Close()
}

// TestCloseWaitsForCallsInFlight closes a pool while other goroutines keep
// calling ForEach and Run on it: every call completes and covers its
// indices, and no helper is left afterwards.
func TestCloseWaitsForCallsInFlight(t *testing.T) {
	base := baseGoroutines()
	p := NewPool(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				p.ForEach(32, Func(func(i int) { total.Add(1) }))
				p.Run(func() { total.Add(1) })
			}
		}()
	}
	p.Close()
	wg.Wait()
	if got := total.Load(); got != 4*50*33 {
		t.Fatalf("total %d, want %d", got, 4*50*33)
	}
	settleGoroutines(t, base, "after Close and the callers")
}

// TestSetSharedWorkersRetiresPool checks that replacing the shared pool
// stops the replaced pool's helpers.
func TestSetSharedWorkersRetiresPool(t *testing.T) {
	defer SetSharedWorkers(0)
	SetSharedWorkers(2)
	base := baseGoroutines()
	for k := 0; k < 10; k++ {
		Shared().ForEach(8, Func(func(int) {}))
		SetSharedWorkers(2)
	}
	settleGoroutines(t, base, "after retiring ten shared pools")
}

// TestHelperPanicReraisedOnCaller makes a task panic on a helper, never on
// the caller: the panic is re-raised on the caller, and the helper lives on
// to serve the next calls.
func TestHelperPanicReraisedOnCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	// rendezvous runs two indices that each wait for the other, so one of
	// them must run on the pool's helper.
	rendezvous := func(fn func(onCaller bool)) {
		caller := goid()
		var both sync.WaitGroup
		both.Add(2)
		p.ForEach(2, Func(func(i int) {
			both.Done()
			both.Wait()
			fn(goid() == caller)
		}))
	}
	// Ten panics outnumber the helpers: a helper that died with its panic
	// would leave a later rendezvous without a partner.
	for round := 0; round < 10; round++ {
		func() {
			defer func() {
				if r := recover(); r != "helper boom" {
					t.Fatalf("round %d: recovered %v, want the helper's panic", round, r)
				}
			}()
			rendezvous(func(onCaller bool) {
				if !onCaller {
					panic("helper boom")
				}
			})
		}()
		var helped atomic.Int32
		rendezvous(func(onCaller bool) {
			if !onCaller {
				helped.Add(1)
			}
		})
		if helped.Load() != 1 {
			t.Fatalf("round %d: no helper served the call after the panic", round)
		}
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header.
func goid() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	return s[:strings.IndexByte(s, ' ')]
}

// TestNestedForEachFromHelper fans out again from inside a task that runs
// on a helper; the nested call completes whether it finds a free slot or
// runs on the helper alone.
func TestNestedForEachFromHelper(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		p := NewPool(workers)
		var total atomic.Int64
		for round := 0; round < 20; round++ {
			p.ForEach(8, Func(func(i int) {
				p.ForEach(16, Func(func(j int) {
					p.ForEach(4, Func(func(int) { total.Add(1) }))
				}))
			}))
		}
		if got := total.Load(); got != 20*8*16*4 {
			t.Fatalf("workers %d: nested total %d, want %d", workers, got, 20*8*16*4)
		}
		p.Close()
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
			p.ForEach(64, Func(func(i int) {
				if i == 13 {
					panic("boom")
				}
			}))
		}()
		var sum atomic.Int64
		p.ForEach(64, Func(func(i int) { sum.Add(int64(i)) }))
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
	p.ForEach(100, Func(func(i int) {
		if i == 37 {
			panic("boom")
		}
	}))
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
			p.ForEach(len(out), Func(func(i int) { out[i] = seed + i }))
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
