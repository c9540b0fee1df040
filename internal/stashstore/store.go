// Package stashstore is the tiered home for encoded stashes: a hot tier of
// in-RAM EncodedStash containers under a configurable byte cap, and a cold
// tier that spills sealed "GSTP" pages to a per-store scratch file. The
// paper rejects vDNN-style swapping because raw feature maps saturate the
// transfer link; spilling *encoded* pages moves 2–5× fewer bytes — the same
// leverage cDMA gets from compressing DMA traffic — so a model whose stash
// working set exceeds RAM can still train.
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
// Concurrency contract: Put, BeginStep and Close are called from the
// executor's serial section; Fetch may be called concurrently from decode
// futures. All state is mutex-guarded and file I/O uses pread/pwrite, so
// concurrent fetches (and a fetch racing a later put) are safe.
package stashstore

import (
	"fmt"
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

// coldRef locates one spilled page in the scratch file.
type coldRef struct {
	off int64
	n   int
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

	gHot, gHotPeak, gCold *telemetry.Gauge
	cEvict, cHit, cMiss   *telemetry.Counter
	cWBytes, cRBytes      *telemetry.Counter
	hWriteNS, hReadNS     *telemetry.Histogram

	mu        sync.Mutex
	hot       map[int]*encoding.EncodedStash
	cold      map[int]coldRef
	hotBytes  int64
	coldBytes int64
	f         *os.File
	wOff      int64
	page      []byte // reused page-assembly scratch (write path is serial)
	st        Stats
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
		hot:    map[int]*encoding.EncodedStash{},
		cold:   map[int]coldRef{},

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

// nameOf returns the node's name for error messages.
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

// BeginStep resets the store for a new backward pass: all of the previous
// step's pages are dead, so the write offset rewinds to zero and the
// scratch file is reused in place — the file never grows past the peak
// single-step spill footprint.
func (s *Store) BeginStep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.hot)
	clear(s.cold)
	s.hotBytes, s.coldBytes, s.wOff = 0, 0, 0
	s.gHot.Set(0)
	s.gCold.Set(0)
}

// Put stores node id's encoded stash in the hot tier, then restores the
// budget invariant by spilling the furthest-backward-use residents (possibly
// including the incoming stash itself). Serial with respect to other Puts
// and BeginStep; see the package comment.
func (s *Store) Put(id int, enc *encoding.EncodedStash) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Puts++
	s.hot[id] = enc
	s.hotBytes += enc.Bytes()
	if s.budget > 0 {
		for s.hotBytes > s.budget && len(s.hot) > 0 {
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
// (largest priority, ties broken toward the larger node ID so map iteration
// order never matters) and writes it out as one GSTP page. The cold-tier
// index entry is published only after the whole page write succeeds.
func (s *Store) spillVictimLocked() error {
	victim, best, bestPri := -1, -1, -1
	for id := range s.hot {
		if p := s.priorityOf(id); p > bestPri || (p == bestPri && id > best) {
			victim, best, bestPri = id, id, p
		}
	}
	enc := s.hot[victim]
	name := s.nameOf(victim)
	if err := s.inj.FailSpillWrite(name); err != nil {
		return fmt.Errorf("stashstore: spill %q: %w", name, err)
	}
	start := time.Now()
	page, err := AppendPage(s.page[:0], uint32(victim), enc)
	if err != nil {
		return fmt.Errorf("stashstore: spill %q: %w", name, err)
	}
	s.page = page // keep the grown capacity for the next spill
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "gist-spill-*.gstp")
		if err != nil {
			return fmt.Errorf("stashstore: create spill file: %w", err)
		}
		s.f = f
	}
	if _, err := s.f.WriteAt(page, s.wOff); err != nil {
		return fmt.Errorf("stashstore: spill %q: %w", name, err)
	}
	s.cold[victim] = coldRef{off: s.wOff, n: len(page)}
	s.wOff += int64(len(page))
	s.coldBytes += int64(len(page))
	delete(s.hot, victim)
	s.hotBytes -= enc.Bytes()
	s.st.Evictions++
	s.st.SpillWritten += int64(len(page))
	s.cEvict.Inc()
	s.cWBytes.Add(int64(len(page)))
	s.hWriteNS.Observe(time.Since(start).Nanoseconds())
	s.gCold.Set(s.coldBytes)
	s.tel.Complete("stashstore", "spill-write", start,
		telemetry.Str("node", name), telemetry.Int("bytes", int64(len(page))))
	return nil
}

// Fetch removes and returns node id's stash: straight from the hot tier on
// a hit, or read back and re-parsed from its spill page on a miss. Safe to
// call concurrently from decode futures. Fetched stashes do not re-enter
// the hot tier, so the budget is enforced entirely at Put time.
func (s *Store) Fetch(id int) (*encoding.EncodedStash, error) {
	s.mu.Lock()
	if enc, ok := s.hot[id]; ok {
		delete(s.hot, id)
		s.hotBytes -= enc.Bytes()
		s.st.Hits++
		s.gHot.Set(s.hotBytes)
		s.mu.Unlock()
		s.cHit.Inc()
		return enc, nil
	}
	ref, ok := s.cold[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("stashstore: no stash stored for %q", s.nameOf(id))
	}
	delete(s.cold, id)
	s.coldBytes -= int64(ref.n)
	s.st.Misses++
	s.gCold.Set(s.coldBytes)
	f := s.f
	s.mu.Unlock()

	name := s.nameOf(id)
	start := time.Now()
	buf := make([]byte, ref.n)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("stashstore: read page for %q at offset %d: %w", name, ref.off, err)
	}
	buf = s.inj.TamperSpillPage(name, buf)
	p, err := ReadPage(buf)
	if err != nil {
		return nil, fmt.Errorf("stashstore: page for %q at offset %d: %w", name, ref.off, err)
	}
	if p.Node != id {
		return nil, fmt.Errorf("stashstore: page for %q at offset %d: %w: holds node %d",
			name, ref.off, ErrCorruptPage, p.Node)
	}
	s.mu.Lock()
	s.st.SpillRead += int64(ref.n)
	s.mu.Unlock()
	s.cMiss.Inc()
	s.cRBytes.Add(int64(ref.n))
	s.hReadNS.Observe(time.Since(start).Nanoseconds())
	s.tel.Complete("stashstore", "spill-read", start,
		telemetry.Str("node", name), telemetry.Int("bytes", int64(ref.n)))
	return p.Stash, nil
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
// repeated ReleaseBuffers/step cycles keep working.
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
