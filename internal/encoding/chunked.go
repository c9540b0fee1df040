package encoding

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"gist/internal/bitpack"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// The parallel chunked codec layer. Every stash payload is split into
// row-aligned chunks of ChunkElems elements; chunks encode, decode and hash
// independently on a bounded worker pool, and the per-chunk CRCs roll up —
// via crc32Combine — into exactly the checksum the serial whole-payload
// pass computes. The layout depends only on the element count and chunk
// size, never on the worker count, so parallel and serial runs produce
// byte-identical sealed stashes.

const (
	// chunkAlign is the element granularity every chunk boundary sits on:
	// a multiple of a 64-bit mask word (Binarize, ZVC) and of the 2/3/4
	// values-per-word DPR packings, so concurrent chunks never share a
	// backing word. It is 768 — three 256-element blocks — because the
	// sealed chunk CRCs of every stash ever written were cut at it.
	chunkAlign = 768

	// DefaultChunkElems is the default chunk size: 128 aligned groups
	// (98304 elements, 384 KiB of FP32), small enough that VGG-scale
	// feature maps split across every core and large enough that the
	// per-chunk dispatch cost disappears into the kernel work.
	DefaultChunkElems = 128 * chunkAlign
)

// Codec binds the chunked kernels to a worker pool and chunk size. The
// zero Codec is valid: it uses the process-wide parallel.Shared() pool and
// DefaultChunkElems. A Codec is a value type safe for concurrent use.
type Codec struct {
	// Pool runs the chunk work; nil selects parallel.Shared(). A
	// one-worker pool is the serial path.
	Pool *parallel.Pool
	// ChunkElems is the chunk size in elements; it is rounded up to a
	// multiple of the 768-element alignment. 0 selects DefaultChunkElems.
	ChunkElems int
	// Tel, when non-nil, receives per-technique encode/decode latency
	// histograms, byte counters, chunk counts and CRC-failure events —
	// and, when the sink has tracing enabled, complete trace events per
	// codec call plus per-chunk worker spans. The nil default adds only a
	// nil check per call.
	Tel *telemetry.Sink
}

// defaultCodec holds the process-wide codec override set by SetDefaultCodec.
var defaultCodec atomic.Pointer[Codec]

// DefaultCodec returns the codec a caller without one of its own uses — an
// executor built with no Options.Codec, the ratio experiment: the zero
// Codec (shared pool, default chunk size) unless SetDefaultCodec installed
// an override.
func DefaultCodec() Codec {
	if p := defaultCodec.Load(); p != nil {
		return *p
	}
	return Codec{}
}

// SetDefaultCodec installs the codec DefaultCodec returns — how a CLI
// attaches its telemetry sink to every codec it does not build itself.
// Safe to call concurrently; in-flight operations keep the codec they
// started with.
func SetDefaultCodec(c Codec) {
	defaultCodec.Store(&c)
}

// Workers reports the codec's worker-pool size.
func (cdc Codec) Workers() int { return cdc.pool().Workers() }

// WorkerPool returns the parallel pool the codec runs chunk work on (the
// shared pool when none is configured). The executor's encode and decode
// futures each hold one of this pool's slots while they run, so stash work
// and chunk kernels share one worker budget instead of reaching through a
// package singleton.
func (cdc Codec) WorkerPool() *parallel.Pool { return cdc.pool() }

func (cdc Codec) pool() *parallel.Pool {
	if cdc.Pool != nil {
		return cdc.Pool
	}
	return parallel.Shared()
}

// normalizeChunkElems applies the default and rounds up to alignment.
func normalizeChunkElems(ce int) int {
	if ce <= 0 {
		return DefaultChunkElems
	}
	if r := ce % chunkAlign; r != 0 {
		ce += chunkAlign - r
	}
	return ce
}

func (cdc Codec) chunkElems() int { return normalizeChunkElems(cdc.ChunkElems) }

// EncodeStashInto encodes a feature map per the assignment into a
// caller-owned container, chunk-parallel on the codec's pool; the output is
// byte-identical to a serial encode at every worker count. The input tensor
// is not modified; callers relinquish it after encoding, which is exactly
// the memory-sharing opportunity Gist creates. The stash's payloads are
// rebuilt in place, reusing their backing arrays when capacity allows, and
// any seal state is cleared: the pooled executor keeps one container per
// stashing node and re-encodes into it every step, so the encode path stops
// allocating once the containers reach steady-state size.
//
// For ZVC the runtime data decides the footprint: when the encoded form
// would not beat the dense DPR stash it competes with,
// EncodeStashInto returns ErrStashTooLarge. Callers that prefer graceful
// degradation over a hard error use EncodeStashAdaptiveInto. On error the
// container's contents are unspecified; reusing it for the next encode
// remains valid.
func (cdc Codec) EncodeStashInto(e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	return cdc.encodeTechInto(e, as.Tech, as, t)
}

// encodeTechInto encodes with an explicit technique, which may differ from
// as.Tech: the adaptive fallback re-encodes the same assignment as dense
// DPR without mutating the shared Assignment. Telemetry is keyed by the
// technique attempted, so the fallback shows up under its own name.
func (cdc Codec) encodeTechInto(e *EncodedStash, tech Technique, as *Assignment, t *tensor.Tensor) error {
	var start time.Time
	if cdc.Tel != nil {
		start = time.Now()
	}
	var err error
	if impl, ok := techImpl(tech); ok {
		e.Tech = tech
		e.Shape = append(e.Shape[:0], t.Shape...)
		e.ChunkElems = cdc.chunkElems()
		e.Checksum, e.ChunkCRCs, e.sealed = 0, e.ChunkCRCs[:0], false
		err = impl.encodeInto(cdc, e, as, t)
	} else {
		err = fmt.Errorf("%w (technique %v)", ErrNoTechnique, tech)
	}
	if cdc.Tel != nil {
		var held int64
		if err == nil {
			held = e.Bytes()
		}
		cdc.observe(opEncode, tech, start, held, err)
	}
	return err
}

// EncodeStashAdaptiveInto encodes per the assignment and, when the
// runtime data defeats the planned ZVC encoding (ErrStashTooLarge),
// rebuilds the stash in the same container as the dense DPR encoding,
// which cannot fail. It reports whether that one hop fired, so the
// executor can count degradations; each is counted on
// codec.encode.fallbacks too.
func (cdc Codec) EncodeStashAdaptiveInto(e *EncodedStash, as *Assignment, t *tensor.Tensor) (fellBack bool, err error) {
	err = cdc.EncodeStashInto(e, as, t)
	if !errors.Is(err, ErrStashTooLarge) {
		return false, err
	}
	cdc.metrics().add(cFallbacks, 1)
	return true, cdc.encodeTechInto(e, DPR, as, t)
}

// fromPositiveInto builds the Binarize mask chunk-parallel into m (a nil m
// allocates a fresh one): each chunk owns whole 64-bit words (chunk
// boundaries are 768-aligned).
func (cdc Codec) fromPositiveInto(m *bitpack.BitMask, xs []float32) *bitpack.BitMask {
	m = resetMask(m, len(xs))
	t := cdc.elemTask(fillPositive, len(xs))
	t.mask, t.src = m, xs
	cdc.forChunks(t)
	return m
}

// resetMask returns m reset to n clear bits, or a new mask when m is nil.
func resetMask(m *bitpack.BitMask, n int) *bitpack.BitMask {
	if m == nil {
		return bitpack.NewBitMask(n)
	}
	m.Reset(n)
	return m
}

// encodePackedInto packs xs at the DPR format chunk-parallel into p (a nil
// p allocates a fresh one): each chunk owns whole storage words (chunk
// boundaries are 768-aligned, a multiple of every values-per-word packing).
func (cdc Codec) encodePackedInto(p *floatenc.Packed, f floatenc.Format, xs []float32) *floatenc.Packed {
	if p == nil {
		p = floatenc.NewPacked(f, len(xs))
	} else {
		p.Reset(f, len(xs))
	}
	t := cdc.elemTask(packRange, len(xs))
	t.packed, t.src = p, xs
	cdc.forChunks(t)
	return p
}

// DecodeInto materializes the FP32 staging tensor for the backward use into
// dst, a caller-provided tensor of the stash's shape: OpenStored's checks,
// then a copy of its cursor per chunk on the codec's pool, each sought to
// its chunk's start, so the output is identical to one serial pass of the
// cursor. The executor takes the decode target when the stash's fetch
// starts and hands it to the backward kernel when the future resolves.
// Every element of dst is overwritten, so a recycled buffer needs no
// pre-clearing. A Binarize stash decodes to its 0/1 indicator tensor (ReLU
// backward only tests Y > 0, so it gives the same gradient bit for bit).
//
// Errors are OpenStored's: a sealed stash is verified (per chunk) first, so
// corruption surfaces as ErrCorruptStash before any decoding touches the
// damaged payload; a dst of another shape is ErrShapeMismatch. DecodeInto
// never panics on corrupted or deserialized input. On error dst's contents
// are unspecified.
func (cdc Codec) DecodeInto(dst *tensor.Tensor, e *EncodedStash) error {
	var start time.Time
	if cdc.Tel != nil {
		start = time.Now()
	}
	var s StoredStash
	err := cdc.OpenStored(&s, e, dst.Shape)
	if err == nil {
		task := cdc.elemTask(decodeStored, len(dst.Data))
		task.stored, task.dst = s, dst.Data
		cdc.forChunks(task)
	}
	if cdc.Tel != nil {
		var raw int64
		if err == nil {
			raw = dst.Bytes()
		}
		cdc.observe(opDecode, e.Tech, start, raw, err)
	}
	return err
}

// decodeStored is DecodeInto's chunk kernel: the task's cursor, copied,
// sought to the chunk's start and run over it.
func decodeStored(t *chunkTask, c int) {
	lo, hi := t.span(c)
	s := t.stored
	s.seek(lo)
	s.DecodeNext(t.dst[lo:hi])
}

// nil-tolerant accessors for error messages on malformed stashes.
func maskBits(m *bitpack.BitMask) int {
	if m == nil {
		return 0
	}
	return m.Len()
}

func packedN(p *floatenc.Packed) int {
	if p == nil {
		return 0
	}
	return p.N
}

// packedValuesPerWord is ValuesPerWord without the panic on garbage
// formats (possible after deserialization of hostile bytes).
func packedValuesPerWord(f floatenc.Format) (int, bool) {
	switch f {
	case floatenc.FP32, floatenc.FP16, floatenc.FP10, floatenc.FP8:
		return f.ValuesPerWord(), true
	}
	return 0, false
}

// Seal computes per-chunk CRCs on the pool and rolls them up into the
// stash checksum — the exact value the serial whole-payload checksum()
// produces, by crc32Combine's construction. The chunk layout (ChunkElems)
// is fixed on the stash at encode time so Verify localizes corruption to
// the same chunks regardless of the verifying codec's configuration.
// Payloads whose structure does not fit the chunk layout (hand-built or
// deserialized oddities) seal with the serial checksum and no chunk CRCs.
func (cdc Codec) Seal(e *EncodedStash) {
	if e.ChunkElems <= 0 {
		e.ChunkElems = cdc.chunkElems()
	}
	full, chunks, ok := cdc.chunkChecksumsInto(e.ChunkCRCs, e)
	if !ok {
		e.Checksum = e.checksum()
		e.ChunkCRCs = nil
		e.sealed = true
		return
	}
	e.Checksum = full
	e.ChunkCRCs = chunks
	e.sealed = true
}

// Verify re-hashes a sealed stash chunk-parallel. A mismatch in a chunked
// stash returns a *ChunkError naming exactly the corrupted chunk (wrapping
// ErrCorruptStash); stashes sealed without chunk CRCs fall back to the
// whole-payload comparison.
func (cdc Codec) Verify(e *EncodedStash) error {
	err := cdc.verify(e)
	if err != nil && cdc.Tel != nil {
		cdc.metrics().add(cCRCFailures, 1)
		args := []telemetry.Arg{telemetry.Str("tech", e.Tech.String())}
		var ce *ChunkError
		if errors.As(err, &ce) {
			args = append(args,
				telemetry.Int("chunk", int64(ce.Chunk)),
				telemetry.Int("elem_lo", int64(ce.ElemLo)),
				telemetry.Int("elem_hi", int64(ce.ElemHi)))
		}
		cdc.Tel.Instant("codec", "crc-failure", args...)
	}
	return err
}

func (cdc Codec) verify(e *EncodedStash) error {
	if !e.sealed {
		return nil
	}
	scratch := crcScratch.get()
	defer crcScratch.put(scratch)
	full, chunks, ok := cdc.chunkChecksumsInto(*scratch, e)
	if ok {
		*scratch = chunks
	}
	if !ok || len(chunks) != len(e.ChunkCRCs) {
		if got := e.checksum(); got != e.Checksum {
			return fmt.Errorf("%w: %v stash of shape %v: crc %#x, sealed %#x",
				ErrCorruptStash, e.Tech, e.Shape, got, e.Checksum)
		}
		return nil
	}
	for c := range chunks {
		if chunks[c] != e.ChunkCRCs[c] {
			elemLo, elemHi, byteLo, byteHi := e.ChunkSpan(c)
			return &ChunkError{
				Chunk: c, Chunks: len(chunks),
				Tech: e.Tech, Shape: e.Shape.Clone(),
				Got: chunks[c], Want: e.ChunkCRCs[c],
				ElemLo: elemLo, ElemHi: elemHi,
				ByteLo: byteLo, ByteHi: byteHi,
			}
		}
	}
	if full != e.Checksum {
		// Every chunk matches but the roll-up does not: the header
		// (technique, shape or a layout header word) or the sealed
		// checksum itself was altered.
		return fmt.Errorf("%w: %v stash of shape %v: rolled-up crc %#x, sealed %#x",
			ErrCorruptStash, e.Tech, e.Shape, full, e.Checksum)
	}
	return nil
}

// ChunkError reports a chunk-level CRC mismatch from Verify: exactly chunk
// Chunk (of Chunks) of the held payload was altered. It wraps
// ErrCorruptStash so existing errors.Is recovery paths are unaffected.
type ChunkError struct {
	Chunk, Chunks int
	Tech          Technique
	Shape         tensor.Shape
	Got, Want     uint32
	// ElemLo/ElemHi is the payload element range the chunk covers, and
	// ByteLo/ByteHi its byte offsets within the payload word array — the
	// self-describing location trace and metric labels carry. Byte
	// offsets are -1 for ZVC, whose chunks span two backing arrays (see
	// ChunkSpan).
	ElemLo, ElemHi int
	ByteLo, ByteHi int64
}

func (c *ChunkError) Error() string {
	loc := ""
	if c.ElemHi > c.ElemLo {
		loc = fmt.Sprintf(" (elements %d-%d", c.ElemLo, c.ElemHi)
		if c.ByteHi > c.ByteLo && c.ByteLo >= 0 {
			loc += fmt.Sprintf(", payload bytes %d-%d", c.ByteLo, c.ByteHi)
		}
		loc += ")"
	}
	return fmt.Sprintf("encoding: corrupt stash (checksum mismatch): %v stash of shape %v: chunk %d/%d%s crc %#x, sealed %#x",
		c.Tech, c.Shape, c.Chunk, c.Chunks, loc, c.Got, c.Want)
}

// Unwrap makes errors.Is(err, ErrCorruptStash) hold for chunk errors.
func (c *ChunkError) Unwrap() error { return ErrCorruptStash }

// CorruptedChunk extracts the failing chunk index from a Verify or DecodeInto
// error, reporting ok = false when the error carries no chunk localization.
func CorruptedChunk(err error) (chunk int, ok bool) {
	var ce *ChunkError
	if errors.As(err, &ce) {
		return ce.Chunk, true
	}
	return 0, false
}

// NumChunks returns how many chunks the stash's payload layout has.
func (e *EncodedStash) NumChunks() int {
	return e.layout().nc
}

// ChunkSpan returns the payload element range [elemLo, elemHi) chunk c
// covers and, when the technique keeps its bit-addressable payload in a
// single array (Binarize mask words, DPR packed words),
// the byte offsets [byteLo, byteHi) of that range within the array — the
// region whose CRC the chunk seals. Techniques whose chunks span several
// backing arrays (ZVC), and payloads that do not fit the chunk layout,
// report byte offsets of -1.
func (e *EncodedStash) ChunkSpan(c int) (elemLo, elemHi int, byteLo, byteHi int64) {
	l := e.layout()
	elemLo = min(c*l.ce, l.n)
	elemHi = min(elemLo+l.ce, l.n)
	if elemHi <= elemLo || !l.chunkable || l.nseg != 1 {
		return elemLo, elemHi, -1, -1
	}
	s := &l.segs[0]
	_, size := s.shape()
	lo, hi := l.chunkItems(s, c)
	return elemLo, elemHi, int64(lo) * int64(size), int64(hi) * int64(size)
}

// ChunkOfBit maps a payload bit index (as addressed by FlipBit, in
// [0, PayloadBits())) to the chunk whose CRC detects a flip of that bit.
// The mapping is pinned by regression tests: fault injection flips a bit,
// and Verify must report exactly this chunk.
func (e *EncodedStash) ChunkOfBit(i int) int {
	l := e.layout()
	if bits := l.bits(); i < 0 || i >= bits {
		panic(fmt.Sprintf("encoding: ChunkOfBit index %d out of range [0,%d)", i, bits))
	}
	s, i := l.locate(i)
	_, size := s.shape()
	return l.chunkOf(s, i/(8*size))
}

// resized returns a slice of length n with unspecified contents, in s's
// backing array when that has the capacity.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
