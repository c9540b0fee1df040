// Package parallel provides the bounded, reusable worker pool behind the
// chunked codec layer. Gist's premium is that encoding a stashed feature map
// is cheap relative to the memory it frees, which only holds while the
// encoder keeps up with the producer; the pool lets every hot kernel
// (bitpack masks, narrow-CSR build/scatter, DPR pack/unpack) split its work
// into chunks and run them across cores without spawning unbounded
// goroutines.
//
// The design is deliberately deadlock-proof under nesting: ForEach always
// runs work on the calling goroutine and only recruits helpers when pool
// slots are free, so a task already running on the pool can fan out again
// without waiting on slots it transitively occupies. A nil *Pool is valid
// and runs everything serially.
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
	tasks     *telemetry.Counter   // individual fn(i) executions
	helpers   *telemetry.Counter   // helper goroutines actually spawned
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
type Pool struct {
	workers int
	sem     chan struct{}
}

// NewPool returns a pool that admits at most workers concurrent helpers.
// workers <= 0 selects runtime.GOMAXPROCS(0). A one-worker pool runs
// everything on the calling goroutine (the serial path).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n) and returns when all calls have
// completed. The calling goroutine always participates, and up to
// Workers()-1 helper goroutines join while pool slots are free — slot
// acquisition never blocks, so nested ForEach calls from tasks already on
// the pool degrade to serial instead of deadlocking. Iteration order across
// goroutines is unspecified; callers must make fn(i) touch disjoint state
// (the chunked kernels write disjoint word/row ranges). A panic in fn is
// re-raised on the caller after the remaining work drains.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	pm := metrics.Load()
	if pm != nil {
		pm.forEach.Inc()
		pm.tasks.Add(int64(n))
	}
	if p == nil || p.workers <= 1 || n == 1 {
		if pm != nil {
			start := time.Now()
			for i := 0; i < n; i++ {
				fn(i)
			}
			pm.busyNS.Observe(time.Since(start).Nanoseconds())
			return
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	s := forEachStates.Get().(*forEachState)
	s.n, s.fn, s.pm, s.sem = n, fn, pm, p.sem
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
spawn:
	for h := 0; h < helpers; h++ {
		select {
		case p.sem <- struct{}{}:
			if pm != nil {
				pm.helpers.Inc()
			}
			s.wg.Add(1)
			go s.help()
		default:
			if pm != nil {
				pm.saturated.Inc()
			}
			break spawn // pool saturated: the caller works alone
		}
	}
	s.work()
	s.wg.Wait()
	panicked := s.panicked
	s.next.Store(0)
	s.panicked, s.fn = nil, nil
	forEachStates.Put(s)
	if panicked != nil {
		panic(panicked)
	}
}

// forEachState is everything one parallel ForEach call shares with its
// helpers, gathered into a single recycled object: the call itself puts
// nothing on the heap. A state goes back to the pool only once every helper
// has finished with it; a call that unwinds early (fn panicked on the
// caller's own goroutine) leaves its state to the garbage collector.
type forEachState struct {
	next     atomic.Int64 // next index to hand out
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any // first panic recovered from a helper

	n   int
	fn  func(i int)
	pm  *poolMetrics
	sem chan struct{}

	// help is the helper goroutine's body, bound to this state once so that
	// `go s.help()` starts a goroutine without building a closure.
	help func()
}

var forEachStates = sync.Pool{New: func() any {
	s := new(forEachState)
	s.help = s.helper
	return s
}}

// work claims indices until none are left.
func (s *forEachState) work() {
	var start time.Time
	if s.pm != nil {
		start = time.Now()
	}
	for {
		i := int(s.next.Add(1)) - 1
		if i >= s.n {
			break
		}
		s.fn(i)
	}
	if s.pm != nil {
		s.pm.busyNS.Observe(time.Since(start).Nanoseconds())
	}
}

func (s *forEachState) helper() {
	defer s.wg.Done()
	defer func() { <-s.sem }()
	defer func() {
		if r := recover(); r != nil {
			s.panicMu.Lock()
			if s.panicked == nil {
				s.panicked = r
			}
			s.panicMu.Unlock()
		}
	}()
	s.work()
}

// Run runs fn on the calling goroutine while holding one of the pool's
// worker slots, blocking until a slot is free: at most Workers() Run bodies
// execute at once, the rest queue on the semaphore. The training executor
// starts each stash-decode future as `go f.run()` with run bound once to a
// method that calls Run, so launching a future allocates nothing and decode
// work overlaps backward compute inside the codec's worker budget. fn must
// not panic (decode futures convert failures to errors). A nil pool runs fn
// unbounded.
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
// (0 = GOMAXPROCS, 1 = serial). The -parallel CLI flag and benchmarks use
// this; in-flight ForEach/Run calls on the previous pool finish unaffected.
func SetSharedWorkers(n int) {
	shared.Store(NewPool(n))
}
