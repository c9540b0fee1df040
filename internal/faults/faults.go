// Package faults is a deterministic, seedable fault injector for the Gist
// encode→hold→decode pipeline and its checkpoint stream. Gist keeps
// activations in fragile encoded form (1-bit masks, compacted nonzeros,
// packed sub-FP16 words) across the long forward→backward temporal gap, which is
// exactly the window where a production training system must tolerate
// corruption, allocation failure and crashes. The injector flips bits in
// held EncodedStash payloads, fails encode/decode calls, simulates
// allocation failure against a memory budget, and truncates or corrupts
// checkpoint streams. Every draw is a pure function of the seed, the
// attempt's Key, the stash and the draw site, never of what was drawn
// before it: a run replays exactly whatever order its stashes are encoded,
// decoded and spilled in, on any number of goroutines and replicas.
//
// Every injected fault is logged as an Event; the trainer's RecoveryReport
// is cross-checked against this log (every injected stash corruption must
// be detected by the CRC seal, every injected failure must be retried or
// degraded around). A nil *Injector is valid and injects nothing, so call
// sites pay only a nil check when injection is off.
package faults

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"gist/internal/encoding"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// Injected-failure errors. ErrInjected is the root every specific error
// wraps, so recovery code can match the whole family with errors.Is.
var (
	ErrInjected       = errors.New("faults: injected failure")
	ErrInjectedEncode = fmt.Errorf("%w: encode", ErrInjected)
	ErrInjectedDecode = fmt.Errorf("%w: decode", ErrInjected)
	ErrInjectedAlloc  = fmt.Errorf("%w: stash allocation (memory budget exceeded)", ErrInjected)
	// ErrInjectedSpillWrite simulates an ENOSPC-style failure writing a
	// spill page to the stash store's cold tier.
	ErrInjectedSpillWrite = fmt.Errorf("%w: spill write (no space left on device)", ErrInjected)
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds, one per injection surface.
const (
	BitFlip Kind = iota
	EncodeFail
	DecodeFail
	AllocFail
	CheckpointTruncate
	CheckpointCorrupt
	SpillWriteFail
	SpillReadCorrupt
	SpillShortRead
)

var kindNames = [...]string{"bit-flip", "encode-fail", "decode-fail", "alloc-fail",
	"checkpoint-truncate", "checkpoint-corrupt", "spill-write-fail", "spill-read-corrupt", "spill-short-read"}

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Key names one attempt at one shard of one training step, so a retry
// draws afresh. A single executor runs shard 0.
type Key struct {
	Step, Shard, Attempt int
}

// Event is one injected fault.
type Event struct {
	Kind Kind
	// Key is the attempt the fault hit (for a checkpoint fault, only Step
	// is set: the step the latest BeginStep clocked).
	Key
	// Node names the stash the fault targeted, when applicable.
	Node string
	// Detail is a human-readable specifics string (bit index, byte offset,
	// budget overshoot).
	Detail string
}

// Config selects the fault mix. The zero Config injects nothing.
type Config struct {
	// Seed keys every draw; runs replay exactly.
	Seed uint64
	// BitFlipRate is the per-stash probability of flipping one uniformly
	// chosen payload bit after the stash is sealed.
	BitFlipRate float64
	// EncodeFailRate is the per-stash probability of failing the encode
	// call (simulating a failed kernel launch or transient allocator error).
	EncodeFailRate float64
	// DecodeFailRate is the per-stash probability of failing the decode
	// call before the backward use.
	DecodeFailRate float64
	// AllocBudgetBytes, when positive, fails a step's stash allocation once
	// the step's cumulative encoded bytes exceed the budget — simulated
	// memory pressure. The pressure clears after AllocFailures failures
	// (transient, as in a co-tenant releasing memory), so retries succeed.
	AllocBudgetBytes int64
	// AllocFailures is how many budget overruns fail before the pressure
	// clears. Zero means 1 when a budget is set.
	AllocFailures int
	// CheckpointTruncateAt, when positive, silently drops all checkpoint
	// stream bytes past this offset — a torn write. Applies to writers
	// wrapped with WrapWriter.
	CheckpointTruncateAt int64
	// CheckpointFlipByte, when positive, XORs 0xFF into the checkpoint
	// stream byte at this offset (0 disables; the first bytes are the magic,
	// so every interesting offset is positive).
	CheckpointFlipByte int64
	// SpillWriteFailRate is the per-page probability of failing a spill
	// write with ErrInjectedSpillWrite — an ENOSPC-style transient.
	SpillWriteFailRate float64
	// SpillReadCorruptRate is the per-page probability of XORing 0xFF into
	// one uniformly chosen byte of a spill page as it is read back; the
	// page CRC must detect every hit.
	SpillReadCorruptRate float64
	// SpillShortReadRate is the per-page probability of truncating a spill
	// page read at a uniformly chosen length — a torn page; the bounded
	// parser must reject every hit.
	SpillShortReadRate float64
}

// Draw sites: the dice one stash rolls in one attempt are independent.
const (
	siteEncode = iota
	siteDecode
	siteFlip
	siteSpillWrite
	siteSpillCorrupt
	siteSpillShort
)

// Injector injects the configured faults. Methods are safe on a nil
// receiver (no-ops) and safe for concurrent use.
type Injector struct {
	cfg Config

	mu             sync.Mutex
	step           int
	stepBytes      int64
	allocFailsLeft int
	events         []Event
	tel            *telemetry.Sink
}

// SetTelemetry mirrors every subsequently recorded fault into the sink: a
// faults.injected.<kind> counter plus an instant trace event carrying the
// step, node and detail string. The counters agree with Counts() by
// construction, which the recovery tests cross-check. Nil receiver and nil
// sink are both valid.
func (in *Injector) SetTelemetry(s *telemetry.Sink) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.tel = s
	in.mu.Unlock()
}

// New returns an injector for the config. New(Config{}) and nil both inject
// nothing.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg}
	in.allocFailsLeft = cfg.AllocFailures
	if cfg.AllocBudgetBytes > 0 && cfg.AllocFailures == 0 {
		in.allocFailsLeft = 1
	}
	return in
}

// Enabled reports whether any fault is configured.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	c := in.cfg
	return c.BitFlipRate > 0 || c.EncodeFailRate > 0 || c.DecodeFailRate > 0 ||
		c.AllocBudgetBytes > 0 || c.CheckpointTruncateAt > 0 || c.CheckpointFlipByte > 0 ||
		c.SpillWriteFailRate > 0 || c.SpillReadCorruptRate > 0 || c.SpillShortReadRate > 0
}

// BeginStep clocks the start of a training step: the per-step allocation
// budget resets, and Step reports the step until the next call.
func (in *Injector) BeginStep(step int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.step = step
	in.stepBytes = 0
}

// Step returns the step the latest BeginStep clocked (0 before the first,
// and on a nil injector).
func (in *Injector) Step() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step
}

// roll throws the die at site for one stash in the attempt k: hit reports
// whether it fell under the site's configured rate, and aux is an
// independent value for the fault's detail (which bit, which byte).
func (in *Injector) roll(k Key, node string, site int) (hit bool, aux uint64) {
	if in == nil {
		return false, 0
	}
	c := &in.cfg
	rate := [...]float64{c.EncodeFailRate, c.DecodeFailRate, c.BitFlipRate,
		c.SpillWriteFailRate, c.SpillReadCorruptRate, c.SpillShortReadRate}[site]
	if rate <= 0 {
		return false, 0
	}
	h := uint64(14695981039346656037) // FNV-1a over the node name
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * 1099511628211
	}
	z := tensor.Mix(tensor.Mix(c.Seed, uint64(k.Step), uint64(k.Shard)), uint64(k.Attempt), h)
	u := tensor.Mix(z, uint64(site), 0)
	return float64(u>>11)/(1<<53) < rate, tensor.Mix(u, 0, 0)
}

// record appends an event and mirrors it into the telemetry sink.
func (in *Injector) record(k Kind, key Key, node, detail string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.events = append(in.events, Event{Kind: k, Key: key, Node: node, Detail: detail})
	if in.tel != nil {
		in.tel.Counter("faults.injected." + k.String()).Inc()
		in.tel.Instant("faults", k.String(),
			telemetry.Int("step", int64(key.Step)),
			telemetry.Str("node", node),
			telemetry.Str("detail", detail))
	}
}

// FailEncode rolls the encode-failure die for one stash, returning
// ErrInjectedEncode (and logging the event) on a hit.
func (in *Injector) FailEncode(k Key, node string) error {
	if hit, _ := in.roll(k, node, siteEncode); !hit {
		return nil
	}
	in.record(EncodeFail, k, node, "")
	return fmt.Errorf("%w (stash %q)", ErrInjectedEncode, node)
}

// FailDecode rolls the decode-failure die for one stash.
func (in *Injector) FailDecode(k Key, node string) error {
	if hit, _ := in.roll(k, node, siteDecode); !hit {
		return nil
	}
	in.record(DecodeFail, k, node, "")
	return fmt.Errorf("%w (stash %q)", ErrInjectedDecode, node)
}

// Alloc charges one stash allocation against the step's memory budget and
// fails with ErrInjectedAlloc while simulated pressure lasts. The budget is
// a running total, not a draw: which stash overruns it depends on the order
// of the step's allocations.
func (in *Injector) Alloc(k Key, node string, bytes int64) error {
	if in == nil || in.cfg.AllocBudgetBytes <= 0 {
		return nil
	}
	in.mu.Lock()
	in.stepBytes += bytes
	total, budget := in.stepBytes, in.cfg.AllocBudgetBytes
	fail := total > budget && in.allocFailsLeft > 0
	if fail {
		in.allocFailsLeft--
	}
	in.mu.Unlock()
	if !fail {
		return nil
	}
	in.record(AllocFail, k, node, fmt.Sprintf("step bytes %d > budget %d", total, budget))
	return fmt.Errorf("%w (stash %q, %d bytes over %d budget)", ErrInjectedAlloc, node, total-budget, budget)
}

// CorruptStash rolls the bit-flip die for one sealed stash and, on a hit,
// flips a uniformly chosen payload bit and logs it. It reports whether the
// stash was corrupted. The caller must verify the stash (decode it) before
// the attempt ends, so every logged flip is either detected or proves a
// checksum gap.
func (in *Injector) CorruptStash(k Key, node string, e *encoding.EncodedStash) bool {
	hit, aux := in.roll(k, node, siteFlip)
	if !hit || e == nil || e.PayloadBits() == 0 {
		return false
	}
	bits := e.PayloadBits()
	bit := int(aux % uint64(bits))
	e.FlipBit(bit)
	in.record(BitFlip, k, node, fmt.Sprintf("payload bit %d of %d", bit, bits))
	return true
}

// FailSpillWrite rolls the spill-write-failure die for one page, returning
// ErrInjectedSpillWrite (and logging the event) on a hit — the disk-full
// transient the stash store's recovery path must absorb.
func (in *Injector) FailSpillWrite(k Key, node string) error {
	if hit, _ := in.roll(k, node, siteSpillWrite); !hit {
		return nil
	}
	in.record(SpillWriteFail, k, node, "")
	return fmt.Errorf("%w (stash %q)", ErrInjectedSpillWrite, node)
}

// PlanSpillPage rolls the read-side page faults for one n-byte spill page
// before it comes off disk: a single corrupted byte (SpillReadCorrupt), or
// a cut to a shorter prefix (SpillShortRead). At most one fault fires per
// page so each logged event maps to exactly one detected read failure,
// which the recovery cross-check relies on. The caller applies the plan to
// the page's bytes as they stream in (PageFault.Apply) and parses them
// then, so every logged fault is either detected by the page CRC/bounded
// parser or proves a verification gap.
func (in *Injector) PlanSpillPage(k Key, node string, n int) PageFault {
	if n == 0 {
		return PageFault{}
	}
	if hit, aux := in.roll(k, node, siteSpillCorrupt); hit {
		off := int(aux % uint64(n))
		in.record(SpillReadCorrupt, k, node, fmt.Sprintf("flipped byte at page offset %d", off))
		return PageFault{Flip: true, At: off}
	}
	if hit, aux := in.roll(k, node, siteSpillShort); hit {
		cut := int(aux % uint64(n))
		in.record(SpillShortRead, k, node, fmt.Sprintf("truncated page to %d of %d bytes", cut, n))
		return PageFault{Cut: true, At: cut}
	}
	return PageFault{}
}

// PageFault is the read-side fault planned for one spill page: Flip
// corrupts the byte at page offset At, Cut ends the page after its first
// At bytes. The zero value plans neither.
type PageFault struct {
	Flip, Cut bool
	At        int
}

// Apply applies the fault to b, the page's bytes from offset off on as a
// read delivers them, and returns how many of them the page keeps.
func (f PageFault) Apply(b []byte, off int) int {
	if f.Flip && f.At >= off && f.At < off+len(b) {
		b[f.At-off] ^= 0xff
	}
	if f.Cut && off+len(b) > f.At {
		return max(f.At-off, 0)
	}
	return len(b)
}

// Events returns a copy of the fault log in firing order. Concurrent
// attempts (replicas, decode futures) interleave nondeterministically, so
// compare logs as multisets.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Counts aggregates the fault log by kind.
func (in *Injector) Counts() map[Kind]int {
	m := map[Kind]int{}
	for _, ev := range in.Events() {
		m[ev.Kind]++
	}
	return m
}

// WrapWriter wraps a checkpoint stream writer with the configured
// truncation/corruption faults. With no checkpoint fault configured (or a
// nil injector) the writer is returned unchanged.
func (in *Injector) WrapWriter(w io.Writer) io.Writer {
	if in == nil || (in.cfg.CheckpointTruncateAt <= 0 && in.cfg.CheckpointFlipByte <= 0) {
		return w
	}
	return &faultyWriter{in: in, w: w}
}

// faultyWriter applies truncation and byte corruption to a stream.
type faultyWriter struct {
	in        *Injector
	w         io.Writer
	off       int64
	truncated bool
}

// Write passes data through, dropping bytes past the truncation point and
// flipping the configured byte. Dropped writes still report success — a
// torn write at the OS layer looks exactly like this to the writer.
func (fw *faultyWriter) Write(p []byte) (int, error) {
	in := fw.in
	trunc, flip := in.cfg.CheckpointTruncateAt, in.cfg.CheckpointFlipByte

	n := len(p)
	start := fw.off
	fw.off += int64(n)

	out := p
	if flip > 0 && flip >= start && flip < start+int64(n) {
		out = append([]byte(nil), p...)
		out[flip-start] ^= 0xff
		in.record(CheckpointCorrupt, Key{Step: in.Step()}, "", fmt.Sprintf("flipped byte at offset %d", flip))
	}
	if trunc > 0 && start+int64(len(out)) > trunc {
		if !fw.truncated {
			fw.truncated = true
			in.record(CheckpointTruncate, Key{Step: in.Step()}, "", fmt.Sprintf("tore stream at offset %d", trunc))
		}
		if start >= trunc {
			return n, nil // entirely past the tear: swallow
		}
		out = out[:trunc-start]
	}
	if _, err := fw.w.Write(out); err != nil {
		return 0, err
	}
	return n, nil
}
