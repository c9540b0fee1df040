// Package parallel provides the bounded, reusable worker pool behind the
// chunked codec layer. Gist's premium is that encoding a stashed feature map
// is cheap relative to the memory it frees, which only holds while the
// encoder keeps up with the producer; the pool lets every hot kernel
// (bitpack masks, ZVC compact/expand, DPR pack/unpack) split its work
// into chunks and run them across cores without spawning unbounded
// goroutines.
//
// The design is deliberately deadlock-proof under nesting: ForEach always
// runs work on the calling goroutine and only recruits helpers when pool
// slots are free, so a task already running on the pool can fan out again
// without waiting on slots it transitively occupies. A nil *Pool is valid
// and runs everything serially.
//
// ForEach never allocates. Its body is a Task, which the hot callers pass
// as a pointer to a recycled task object carrying the call's arguments;
// everything one parallel call shares with its helpers is one state from
// the pool's own free list, made with the pool; and the helpers are the
// pool's long-lived goroutines, so a call starts none. So a kernel has
// exactly one path — it dispatches through ForEach at every worker count
// and chunk count, one worker and one chunk included — and that path puts
// nothing on the heap, before or after a garbage collection.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gist/internal/telemetry"
)

// poolMetrics caches the pool instruments so the hot path pays one atomic
// pointer load and nil check per ForEach/Run call, never a name lookup.
type poolMetrics struct {
	forEach   *telemetry.Counter   // ForEach invocations
	tasks     *telemetry.Counter   // individual Task.Do(i) executions
	helpers   *telemetry.Counter   // helpers recruited into ForEach calls
	saturated *telemetry.Counter   // ForEach calls that found the pool full
	busyNS    *telemetry.Histogram // per-participant busy time inside ForEach
	goQueued  *telemetry.Gauge     // Run calls waiting on a pool slot
	goActive  *telemetry.Gauge     // Run bodies currently executing
}

// metrics is the process-wide pool telemetry; nil (the default) is the
// zero-overhead path.
var metrics atomic.Pointer[poolMetrics]

// SetTelemetry wires every pool in the process (shared or private) to the
// sink: queue depth, worker spawns/saturation and per-participant busy
// time. Passing nil disconnects. Telemetry is process-wide because the
// pools themselves are a process-wide budget.
func SetTelemetry(s *telemetry.Sink) {
	if s == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&poolMetrics{
		forEach:   s.Counter("pool.foreach.calls"),
		tasks:     s.Counter("pool.tasks"),
		helpers:   s.Counter("pool.helpers_spawned"),
		saturated: s.Counter("pool.saturated"),
		busyNS:    s.Histogram("pool.busy.ns"),
		goQueued:  s.Gauge("pool.go.queued"),
		goActive:  s.Gauge("pool.go.active"),
	})
}

// Pool bounds how many goroutines the chunked kernels may occupy at once.
// The zero worker count is remapped to GOMAXPROCS. Pools are safe for
// concurrent use by any number of goroutines; a single process-wide pool
// (see Shared) is the intended deployment so concurrent executors contend
// for one CPU budget instead of oversubscribing.
//
// A pool with more than one worker keeps that many long-lived helper
// goroutines, started by its first parallel ForEach and parked on a
// channel between calls, so a call hands its work to helpers that already
// exist instead of starting goroutines. Close stops them.
type Pool struct {
	workers int
	sem     chan struct{}
	// work carries one forEachState per recruited helper to the parked
	// helpers. It never fills: each queued state holds a slot of sem.
	work chan *forEachState
	// states is the pool's free list of call states, all made by NewPool:
	// a call takes one only after it holds a slot of sem and gives it back
	// before it releases its slots, so the list is never empty when a call
	// takes from it.
	states chan *forEachState
	start  sync.Once
	exited sync.WaitGroup
	// started and closed change only under a slot of sem — closed under
	// all of them, in Close — so a call that holds a slot reads them
	// without a lock.
	started, closed bool
}

// NewPool returns a pool that admits at most workers concurrent helpers.
// workers <= 0 selects runtime.GOMAXPROCS(0). A one-worker pool runs
// everything on the calling goroutine (the serial path) and never starts a
// helper.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		sem:     make(chan struct{}, workers),
		work:    make(chan *forEachState, workers),
		states:  make(chan *forEachState, workers),
	}
	for i := 0; i < workers; i++ {
		p.states <- new(forEachState)
	}
	return p
}

// Workers returns the pool's concurrency bound. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the pool's helpers and returns once they have exited. It
// first waits for every slot — every helper and Run body in flight — so it
// must not be called from inside a task or a Run body of the same pool.
// Afterwards ForEach runs on its caller alone and Run works as before.
// Close is idempotent, and a nil pool's is a no-op. Whoever builds a pool
// closes it; the shared pool lives for the process.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for i := 0; i < p.workers; i++ {
		p.sem <- struct{}{}
	}
	if p.started && !p.closed {
		close(p.work)
	}
	p.closed = true
	p.exited.Wait()
	for i := 0; i < p.workers; i++ {
		<-p.sem
	}
}

// Task is the body of a ForEach call: Do(i) runs index i. Holding a Task
// does not allocate when it is a pointer, so a caller that keeps its
// per-call arguments in a recycled task object dispatches for free.
type Task interface {
	Do(i int)
}

// Func adapts a plain function to a Task. The conversion itself is free,
// but a func literal that captures variables is a heap closure once ForEach
// holds it: pass a func value bound once (a method value stored at
// construction) or a recycled task object on a path that must not allocate.
type Func func(i int)

// Do runs f(i).
func (f Func) Do(i int) { f(i) }

// ForEach runs t.Do(i) for every i in [0, n) and returns when all calls have
// completed. The calling goroutine always participates, and up to
// Workers()-1 of the pool's helpers join while pool slots are free — slot
// acquisition never blocks, so nested ForEach calls from tasks already on
// the pool degrade to serial instead of deadlocking. Iteration order across
// goroutines is unspecified; callers must make t.Do(i) touch disjoint state
// (the chunked kernels write disjoint word/row ranges). A panic in t.Do is
// re-raised on the caller after the remaining work drains. ForEach itself
// allocates nothing (TestForEachAllocs).
func (p *Pool) ForEach(n int, t Task) {
	if n <= 0 {
		return
	}
	pm := metrics.Load()
	if pm != nil {
		pm.forEach.Inc()
		pm.tasks.Add(int64(n))
	}
	if p == nil || p.workers <= 1 || n == 1 || !p.recruit(pm) {
		var start time.Time
		if pm != nil {
			start = time.Now()
		}
		for i := 0; i < n; i++ {
			t.Do(i)
		}
		if pm != nil {
			pm.busyNS.Observe(time.Since(start).Nanoseconds())
		}
		return
	}

	// The caller holds one slot: take a state and hand it to a helper,
	// then to one more per further slot it can get.
	s := <-p.states
	s.n, s.t, s.pm = n, t, pm
	hired := 0
	for {
		s.wg.Add(1)
		p.work <- s
		hired++
		if hired == min(p.workers-1, n-1) || !p.recruit(pm) {
			break
		}
	}
	s.run()
	s.wg.Wait()
	panicked := s.panicked
	s.next.Store(0)
	s.panicked, s.t = nil, nil
	p.states <- s
	for ; hired > 0; hired-- {
		<-p.sem
	}
	if panicked != nil {
		panic(panicked)
	}
}

// recruit takes a slot for one helper without blocking, starting the
// helpers on the pool's first recruit. It reports false when the pool is
// saturated or closed.
func (p *Pool) recruit(pm *poolMetrics) bool {
	select {
	case p.sem <- struct{}{}:
	default:
		if pm != nil {
			pm.saturated.Inc()
		}
		return false
	}
	if p.closed {
		<-p.sem
		return false
	}
	p.start.Do(p.startHelpers)
	if pm != nil {
		pm.helpers.Inc()
	}
	return true
}

func (p *Pool) startHelpers() {
	p.exited.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.helper()
	}
	p.started = true
}

// helper is one long-lived helper: it runs every state handed to it until
// Close closes the work channel. A panic in a task is recovered into the
// state, so the helper outlives it.
func (p *Pool) helper() {
	defer p.exited.Done()
	for s := range p.work {
		s.run()
		s.wg.Done()
	}
}

// forEachState is everything one parallel ForEach call shares with its
// helpers, gathered into one object from the pool's free list: the call
// itself puts nothing on the heap.
type forEachState struct {
	next     atomic.Int64 // next index to hand out
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any // first panic recovered from any participant

	n  int
	t  Task
	pm *poolMetrics
}

// run claims indices until none are left, recording the first panic
// instead of unwinding, so the caller always collects its helpers and
// returns the state before it re-raises.
func (s *forEachState) run() {
	defer func() {
		if r := recover(); r != nil {
			s.panicMu.Lock()
			if s.panicked == nil {
				s.panicked = r
			}
			s.panicMu.Unlock()
		}
	}()
	var start time.Time
	if s.pm != nil {
		start = time.Now()
	}
	for {
		i := int(s.next.Add(1)) - 1
		if i >= s.n {
			break
		}
		s.t.Do(i)
	}
	if s.pm != nil {
		s.pm.busyNS.Observe(time.Since(start).Nanoseconds())
	}
}

// Run runs fn on the calling goroutine while holding one of the pool's
// worker slots, blocking until a slot is free: at most Workers() Run bodies
// execute at once, the rest queue on the semaphore. The training executor
// runs each stash's encode and decode on its long-lived encode and decode
// workers, each inside Run, so stash work overlaps forward and backward
// compute inside the codec's worker budget. fn
// must not panic (the futures convert failures to errors). A nil pool runs
// fn unbounded.
func (p *Pool) Run(fn func()) {
	if p == nil {
		fn()
		return
	}
	pm := metrics.Load()
	if pm != nil {
		pm.goQueued.Add(1)
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	if pm != nil {
		pm.goQueued.Add(-1)
		pm.goActive.Add(1)
		defer pm.goActive.Add(-1)
	}
	fn()
}

// shared is the process-wide pool every codec call sites default to.
var shared atomic.Pointer[Pool]

// Shared returns the process-wide pool, creating a GOMAXPROCS-sized one on
// first use. All default codec paths (and concurrent executors) route
// through this single pool so total codec concurrency stays bounded by one
// budget.
func Shared() *Pool {
	if p := shared.Load(); p != nil {
		return p
	}
	p := NewPool(0)
	if shared.CompareAndSwap(nil, p) {
		return p
	}
	return shared.Load()
}

// SetSharedWorkers replaces the shared pool with one of the given size
// (0 = GOMAXPROCS, 1 = serial) and closes the one it replaces, once the
// ForEach/Run calls in flight on it finish. The -parallel CLI flag and
// benchmarks use this.
func SetSharedWorkers(n int) {
	shared.Swap(NewPool(n)).Close()
}
