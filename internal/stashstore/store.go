// Package stashstore is the tiered home for encoded stashes: a hot tier of
// in-RAM EncodedStash containers under a configurable byte cap, and a cold
// tier that spills sealed "GSTP" pages to a per-store scratch file. The
// paper rejects vDNN-style swapping because raw feature maps saturate the
// transfer link; spilling *encoded* pages moves 2–5× fewer bytes — the same
// leverage cDMA gets from compressing DMA traffic — so a model whose stash
// working set exceeds RAM can still train.
//
// A spilled stash comes back into the container that was Put: Fetch parses
// its page into that same EncodedStash (encoding.ReadWire), so Put lends
// the container to the store until Fetch returns it, and a steady-state
// spill round trip allocates nothing. Pages stream between the container
// and the file through one fixed buffer of pageBufBytes per page I/O in
// flight, so spilling holds no copy of a page in RAM. (The container itself
// stays in memory while its page is on disk, so the budget bounds what the
// hot tier accounts for, not the process's RAM.)
//
// Determinism is the design constraint. Eviction is a pure function of the
// liveness analysis: when the hot tier overflows, the resident stash whose
// first backward use lies furthest in the future is spilled (ties broken by
// node ID), so placement never depends on timing. Spill pages are written
// at offsets fixed by that order, and a page's index entry is published
// only after the full write succeeds, so a failed write leaves no
// half-visible state. Fetch returns bit-identical bytes to what was stored
// (the stash wire round-trip is exact, including seal state), which is why
// the spill determinism matrix can demand bit-identical weights at any
// budget.
//
// Concurrency contract: Put, BeginAttempt and Close are called from the
// executor's serial section; Fetch may be called concurrently from decode
// futures. All state is mutex-guarded and file I/O uses pread/pwrite, so
// concurrent fetches (and a fetch racing a later put) are safe.
package stashstore

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/telemetry"
)

// Config configures a Store.
type Config struct {
	// Budget caps the hot tier in bytes. Zero or negative means unlimited:
	// nothing ever spills and no file is created — the store an executor
	// without a stash budget runs on.
	Budget int64
	// Dir is where the spill scratch file lives; "" means os.TempDir().
	// The file is created lazily on first spill and removed by Close.
	Dir string
	// Priority gives each node ID's eviction priority: the timeline step of
	// the stash's first backward use (graph.FirstBackwardUse). The resident
	// with the LARGEST priority — the backward use furthest away — spills
	// first. Negative values (no backward use) evict before everything.
	Priority []int
	// Names maps node IDs to names for error attribution (optional).
	Names []string
	// Tel receives tier-residency gauges, evict/hit/miss counters,
	// spill-I/O byte counters and latency histograms, and spill spans.
	Tel *telemetry.Sink
	// Faults optionally injects spill write failures and read corruption.
	Faults *faults.Injector
}

// Stats is a point-in-time copy of a store's counters.
type Stats struct {
	Puts      int64 // stashes stored
	Hits      int64 // fetches served from the hot tier
	Misses    int64 // fetches that had to read a spill page
	Evictions int64 // stashes pushed to the cold tier

	HotBytes     int64 // bytes currently resident in the hot tier
	HotPeakBytes int64 // largest hot-tier residency ever observed
	SpillWritten int64 // total page bytes written to the spill file
	SpillRead    int64 // total page bytes read back
}

// Accumulate adds o's counters into s — the trainer sums per-replica store
// stats this way. Summed peaks are an upper bound on simultaneous hot
// bytes, which is the direction the budget assertion needs.
func (s *Stats) Accumulate(o Stats) {
	s.Puts += o.Puts
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.HotBytes += o.HotBytes
	s.HotPeakBytes += o.HotPeakBytes
	s.SpillWritten += o.SpillWritten
	s.SpillRead += o.SpillRead
}

// coldRef locates one spilled page in the scratch file and the container
// the page is read back into.
type coldRef struct {
	off int64
	n   int
	enc *encoding.EncodedStash
}

// Store is one tiered stash home. See the package comment for the
// concurrency contract.
type Store struct {
	budget int64
	dir    string
	pri    []int
	names  []string
	inj    *faults.Injector
	tel    *telemetry.Sink
	key    faults.Key // the attempt the store's stashes belong to (fault draws)

	gHot, gHotPeak, gCold *telemetry.Gauge
	cEvict, cHit, cMiss   *telemetry.Counter
	cWBytes, cRBytes      *telemetry.Counter
	hWriteNS, hReadNS     *telemetry.Histogram

	mu sync.Mutex
	// hot and cold are the tiers, indexed by node ID: hot[id] is nil and
	// cold[id].enc is nil when the tier does not hold node id. They are
	// sized for every node the priorities or names cover, so a step's
	// Puts allocate nothing.
	hot       []*encoding.EncodedStash
	cold      []coldRef
	hotBytes  int64
	coldBytes int64
	f         *os.File
	wOff      int64
	// bufs are the spare page buffers spill writes and reads take and give
	// back; they number the most page I/Os ever in flight at once — one
	// write, or as many reads as decode futures run (the codec's workers).
	bufs []*pageBuf
	st   Stats
}

// pageBufBytes is the one page buffer's size: a page of any length streams
// through it. Chunked file I/O costs no more than whole-page I/O from here
// up; 4 KiB chunks cost about twice as much.
const pageBufBytes = 32 << 10

// pageBuf is one page I/O's buffer. A read also holds the page's section of
// the spill file and the injector's fault for the page, which it applies to
// the bytes as they arrive (ReadAt).
type pageBuf struct {
	buf   []byte // pageBufBytes, its own allocation: no size class pads it
	f     *os.File
	base  int64
	fault faults.PageFault
}

// ReadAt reads the page's bytes [off, off+len(b)), with the planned fault.
func (p *pageBuf) ReadAt(b []byte, off int64) (int, error) {
	n, err := p.f.ReadAt(b, p.base+off)
	if k := p.fault.Apply(b[:n], int(off)); k < n {
		return k, io.ErrUnexpectedEOF
	}
	return n, err
}

// New builds a store. It never fails: the spill file is created lazily on
// first eviction, so I/O errors surface from Put where the step's recovery
// loop can absorb them.
func New(cfg Config) *Store {
	s := &Store{
		budget: cfg.Budget,
		dir:    cfg.Dir,
		pri:    cfg.Priority,
		names:  cfg.Names,
		inj:    cfg.Faults,
		tel:    cfg.Tel,
		hot:    make([]*encoding.EncodedStash, max(len(cfg.Priority), len(cfg.Names))),
		cold:   make([]coldRef, max(len(cfg.Priority), len(cfg.Names))),

		gHot:     cfg.Tel.Gauge("stash.store.hot_bytes"),
		gHotPeak: cfg.Tel.Gauge("stash.store.hot_peak_bytes"),
		gCold:    cfg.Tel.Gauge("stash.store.cold_bytes"),
		cEvict:   cfg.Tel.Counter("stash.store.evictions"),
		cHit:     cfg.Tel.Counter("stash.store.hits"),
		cMiss:    cfg.Tel.Counter("stash.store.misses"),
		cWBytes:  cfg.Tel.Counter("stash.store.spill.write_bytes"),
		cRBytes:  cfg.Tel.Counter("stash.store.spill.read_bytes"),
		hWriteNS: cfg.Tel.Histogram("stash.store.spill.write_ns"),
		hReadNS:  cfg.Tel.Histogram("stash.store.spill.read_ns"),
	}
	return s
}

// nameOf returns the node's name: for error messages, for the injector,
// whose draws are keyed by it, and for traced spans. Nothing else asks
// for it, so an unnamed store formats no name on an untraced, fault-free
// put or fetch.
func (s *Store) nameOf(id int) string {
	if id >= 0 && id < len(s.names) && s.names[id] != "" {
		return s.names[id]
	}
	return fmt.Sprintf("node-%d", id)
}

// priorityOf returns the eviction priority for a node: its first backward
// use step, with "no backward use" mapped past every real step so such a
// stash (which will never be fetched) is the first to leave RAM.
func (s *Store) priorityOf(id int) int {
	if id < 0 || id >= len(s.pri) || s.pri[id] < 0 {
		return math.MaxInt32
	}
	return s.pri[id]
}

// BeginStep is BeginAttempt for an unkeyed attempt.
func (s *Store) BeginStep() { s.BeginAttempt(faults.Key{}) }

// BeginAttempt resets the store for the step attempt k, which keys the
// injector's spill-fault draws: the previous attempt's pages are dead, so
// the write offset rewinds to zero and the scratch file is reused in place
// — it never grows past the peak single-step spill footprint.
func (s *Store) BeginAttempt(k faults.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.key = k
	clear(s.hot)
	clear(s.cold)
	s.hotBytes, s.coldBytes, s.wOff = 0, 0, 0
	s.gHot.Set(0)
	s.gCold.Set(0)
}

// Put stores node id's encoded stash in the hot tier, then restores the
// budget invariant by spilling the furthest-backward-use residents (possibly
// including the incoming stash itself). Serial with respect to other Puts
// and BeginAttempt; see the package comment.
func (s *Store) Put(id int, enc *encoding.EncodedStash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Puts++
	if id >= len(s.hot) {
		s.hot = append(s.hot, make([]*encoding.EncodedStash, id+1-len(s.hot))...)
		s.cold = append(s.cold, make([]coldRef, id+1-len(s.cold))...)
	}
	s.hot[id] = enc
	s.hotBytes += enc.Bytes()
	if s.budget > 0 {
		for s.hotBytes > s.budget {
			if err := s.spillVictimLocked(); err != nil {
				return err
			}
		}
	}
	s.gHot.Set(s.hotBytes)
	if s.hotBytes > s.st.HotPeakBytes {
		s.st.HotPeakBytes = s.hotBytes
		s.gHotPeak.SetMax(s.hotBytes)
	}
	return nil
}

// spillVictimLocked picks the resident with the furthest-away backward use
// (largest priority, ties broken toward the larger node ID) and writes it
// out as one GSTP page. The cold-tier index entry is published only after
// the whole page write succeeds.
func (s *Store) spillVictimLocked() error {
	victim, bestPri := -1, -1
	for id, enc := range s.hot {
		if p := s.priorityOf(id); enc != nil && p >= bestPri {
			victim, bestPri = id, p
		}
	}
	enc := s.hot[victim]
	if s.inj.Enabled() {
		if err := s.inj.FailSpillWrite(s.key, s.nameOf(victim)); err != nil {
			return fmt.Errorf("stashstore: spill %q: %w", s.nameOf(victim), err)
		}
	}
	start := time.Now()
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "gist-spill-*.gstp")
		if err != nil {
			return fmt.Errorf("stashstore: create spill file: %w", err)
		}
		s.f = f
	}
	pb := s.takeBufLocked()
	defer s.giveBufLocked(pb)
	w := encoding.NewWireWriter(s.f, s.wOff, pb.buf)
	n, err := writePage(&w, uint32(victim), enc)
	if err != nil {
		return fmt.Errorf("stashstore: spill %q: %w", s.nameOf(victim), err)
	}
	s.cold[victim] = coldRef{off: s.wOff, n: n, enc: enc}
	s.wOff += int64(n)
	s.coldBytes += int64(n)
	s.hot[victim] = nil
	s.hotBytes -= enc.Bytes()
	s.st.Evictions++
	s.st.SpillWritten += int64(n)
	s.cEvict.Inc()
	s.cWBytes.Add(int64(n))
	s.hWriteNS.Observe(time.Since(start).Nanoseconds())
	s.gCold.Set(s.coldBytes)
	s.span("spill-write", start, victim, n)
	return nil
}

// takeBufLocked takes a spare page buffer, making one when none is spare.
func (s *Store) takeBufLocked() *pageBuf {
	if len(s.bufs) == 0 {
		return &pageBuf{buf: make([]byte, pageBufBytes)}
	}
	b := s.bufs[len(s.bufs)-1]
	s.bufs = s.bufs[:len(s.bufs)-1]
	return b
}

func (s *Store) giveBufLocked(b *pageBuf) { s.bufs = append(s.bufs, b) }

// span records one page I/O of node id on the trace. The node and size
// arguments are built only when the sink traces — they outlive the call in
// its buffer — so an untraced store allocates nothing here; an observer
// gets the span either way.
func (s *Store) span(name string, start time.Time, id int, bytes int) {
	if !s.tel.TracingEnabled() {
		s.tel.Complete("stashstore", name, start)
		return
	}
	args := []telemetry.Arg{telemetry.Str("node", s.nameOf(id)), telemetry.Int("bytes", int64(bytes))}
	s.tel.Complete("stashstore", name, start, args...)
}

// Fetch removes and returns node id's stash — the container that was Put:
// straight from the hot tier on a hit, or with its spill page read back and
// parsed into it on a miss. Safe to call concurrently from decode futures.
// Fetched stashes do not re-enter the hot tier, so the budget is enforced
// entirely at Put time. On a miss that fails, the container's contents are
// unspecified (the next encode rebuilds it).
func (s *Store) Fetch(id int) (*encoding.EncodedStash, error) {
	s.mu.Lock()
	if id < 0 || id >= len(s.hot) || s.hot[id] == nil && s.cold[id].enc == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("stashstore: no stash stored for %q", s.nameOf(id))
	}
	if enc := s.hot[id]; enc != nil {
		s.hot[id] = nil
		s.hotBytes -= enc.Bytes()
		s.st.Hits++
		s.gHot.Set(s.hotBytes)
		s.mu.Unlock()
		s.cHit.Inc()
		return enc, nil
	}
	ref := s.cold[id]
	s.cold[id] = coldRef{}
	s.coldBytes -= int64(ref.n)
	s.st.Misses++
	s.gCold.Set(s.coldBytes)
	pb := s.takeBufLocked()
	pb.f, pb.base = s.f, ref.off
	key := s.key
	s.mu.Unlock()

	start := time.Now()
	err := s.readCold(pb, ref, id, key)
	s.mu.Lock()
	s.giveBufLocked(pb)
	if err == nil {
		s.st.SpillRead += int64(ref.n)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.cMiss.Inc()
	s.cRBytes.Add(int64(ref.n))
	s.hReadNS.Observe(time.Since(start).Nanoseconds())
	s.span("spill-read", start, id, ref.n)
	return ref.enc, nil
}

// readCold streams node id's page through pb, which holds its file
// section, into the container it was spilled from; k keys the injector's
// read-side page faults.
func (s *Store) readCold(pb *pageBuf, ref coldRef, id int, k faults.Key) error {
	pb.fault = faults.PageFault{}
	if s.inj.Enabled() {
		pb.fault = s.inj.PlanSpillPage(k, s.nameOf(id), ref.n)
	}
	r := encoding.NewWireReader(pb, 0, ref.n, pb.buf)
	node, size, err := readPage(ref.enc, &r)
	if err != nil {
		return fmt.Errorf("stashstore: page for %q at offset %d: %w", s.nameOf(id), ref.off, err)
	}
	if node != id || size != ref.n {
		return fmt.Errorf("stashstore: page for %q at offset %d: %w: holds node %d in %d of %d bytes",
			s.nameOf(id), ref.off, ErrCorruptPage, node, size, ref.n)
	}
	return nil
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.HotBytes = s.hotBytes
	return st
}

// SpillPath returns the scratch file's path, or "" before the first spill
// (and after Close). Tests use it to assert no spill files leak.
func (s *Store) SpillPath() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return ""
	}
	return s.f.Name()
}

// Close drops all tiers and removes the spill scratch file. Idempotent, and
// the store remains usable afterwards (a later spill recreates the file) so
// repeated Executor.Close/step cycles keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.hot)
	clear(s.cold)
	s.hotBytes, s.coldBytes, s.wOff = 0, 0, 0
	s.gHot.Set(0)
	s.gCold.Set(0)
	if s.f == nil {
		return nil
	}
	name := s.f.Name()
	errClose := s.f.Close()
	errRemove := os.Remove(name)
	s.f = nil
	if errClose != nil {
		return errClose
	}
	return errRemove
}
