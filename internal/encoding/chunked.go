package encoding

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"gist/internal/bitpack"
	"gist/internal/bufpool"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/sparse"
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
	// the least common multiple of a 64-bit mask word (Binarize), a
	// 256-column narrow-CSR row (SSDC) and the 2/3/4 values-per-word DPR
	// packings. Alignment guarantees concurrent chunks never share a
	// backing word or matrix row.
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
	// Buf, when non-nil, supplies the codec's transient scratch buffers
	// (the SSDC quantize copy) from the buffer pool instead of the heap;
	// the scratch is recycled as soon as the encoded form is built. The
	// nil default keeps the allocate-always behavior.
	Buf *bufpool.Pool
}

// defaultCodec holds the process-wide codec override set by SetDefaultCodec.
var defaultCodec atomic.Pointer[Codec]

// DefaultCodec returns the codec used by the package-level EncodeStash /
// Decode / Seal entry points: the zero Codec (shared pool, default chunk
// size) unless SetDefaultCodec installed an override.
func DefaultCodec() Codec {
	if p := defaultCodec.Load(); p != nil {
		return *p
	}
	return Codec{}
}

// SetDefaultCodec installs the codec behind the package-level entry points.
// Safe to call concurrently; in-flight operations keep the codec they
// started with.
func SetDefaultCodec(c Codec) {
	defaultCodec.Store(&c)
}

// Workers reports the codec's worker-pool size.
func (cdc Codec) Workers() int { return cdc.pool().Workers() }

// WorkerPool returns the parallel pool the codec runs chunk work on (the
// shared pool when none is configured). The executor's decode futures each
// hold one of this pool's slots while they run, so decode work and chunk
// kernels share one worker budget instead of reaching through a package
// singleton.
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

// serialChunks reports whether an n-element kernel should iterate its
// chunks inline on the caller's goroutine — a serial codec, or a payload
// that fits one chunk — and, when so, accounts them to the codec.chunks
// counter on behalf of the caller's loop. The inline loop exists for the
// pooled zero-alloc step: dispatching through forChunks costs one closure
// allocation per kernel, which the hot path cannot afford; per-chunk trace
// spans force the forChunks path so the trace still shows every chunk.
func (cdc Codec) serialChunks(n int) (ce int, serial bool) {
	ce = cdc.chunkElems()
	if n > ce && (cdc.pool().Workers() > 1 || cdc.Tel.TracingEnabled()) {
		return ce, false
	}
	if n > 0 {
		cdc.Tel.Counter("codec.chunks").Add(int64((n + ce - 1) / ce))
	}
	return ce, true
}

// inlineChunks reports whether nc chunks of a stash should run as a plain
// loop on the caller's goroutine instead of through ForEach — nothing to
// share them with — which keeps a serial codec's stash path free of the
// closure a dispatch allocates. Unlike serialChunks it takes the chunk
// count, so it also serves stashes laid out under another codec's size.
func (cdc Codec) inlineChunks(nc int) bool {
	return nc < 2 || cdc.pool().Workers() < 2
}

// forChunks partitions [0, n) into aligned chunks and runs fn over them on
// the pool (inline when a single chunk suffices).
func (cdc Codec) forChunks(n int, fn func(lo, hi int)) {
	ce := cdc.chunkElems()
	if n <= ce {
		if n > 0 {
			cdc.Tel.Counter("codec.chunks").Inc()
			fn(0, n)
		}
		return
	}
	nc := (n + ce - 1) / ce
	cdc.Tel.Counter("codec.chunks").Add(int64(nc))
	if cdc.Tel.TracingEnabled() {
		// Per-chunk worker spans: each lands on its own track exactly
		// while chunks overlap, so the trace shows pool utilization.
		inner := fn
		fn = func(lo, hi int) {
			sp := cdc.Tel.Begin("codec", "chunk",
				telemetry.Int("lo", int64(lo)), telemetry.Int("hi", int64(hi)))
			inner(lo, hi)
			sp.End()
		}
	}
	cdc.pool().ForEach(nc, func(c int) {
		fn(c*ce, min((c+1)*ce, n))
	})
}

// EncodeStash encodes a feature map per the assignment, chunk-parallel on
// the codec's pool. Output is byte-identical to the serial path for every
// worker count. See the package-level EncodeStash for semantics.
func (cdc Codec) EncodeStash(as *Assignment, t *tensor.Tensor) (*EncodedStash, error) {
	if cdc.Tel == nil {
		return cdc.encodeStash(as, t)
	}
	start := time.Now()
	e, err := cdc.encodeStash(as, t)
	var held int64
	if e != nil {
		held = e.Bytes()
	}
	cdc.observe("encode", as.Tech, start, held, err)
	return e, err
}

func (cdc Codec) encodeStash(as *Assignment, t *tensor.Tensor) (*EncodedStash, error) {
	e := &EncodedStash{}
	if err := cdc.encodeStashInto(e, as, t); err != nil {
		return nil, err
	}
	return e, nil
}

// EncodeStashInto is EncodeStash building into a caller-owned container:
// the stash's mask / CSR / packed payloads are rebuilt in place, reusing
// their backing arrays when capacity allows, and any seal state is cleared.
// The pooled executor keeps one container per stashing node and re-encodes
// into it every step, so the encode path stops allocating entirely once the
// containers reach steady-state size. Output is byte-identical to
// EncodeStash. On error the container's contents are unspecified; reusing
// it for the next encode remains valid.
func (cdc Codec) EncodeStashInto(e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	if cdc.Tel == nil {
		return cdc.encodeStashInto(e, as, t)
	}
	start := time.Now()
	err := cdc.encodeStashInto(e, as, t)
	var held int64
	if err == nil {
		held = e.Bytes()
	}
	cdc.observe("encode", as.Tech, start, held, err)
	return err
}

func (cdc Codec) encodeStashInto(e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	return cdc.encodeTechInto(e, as.Tech, as, t)
}

// encodeTechInto encodes with an explicit technique, which may differ from
// as.Tech: the adaptive fallback chain re-encodes the same assignment at
// each of its fallback techniques without mutating the shared Assignment.
func (cdc Codec) encodeTechInto(e *EncodedStash, tech Technique, as *Assignment, t *tensor.Tensor) error {
	impl, ok := techImpl(tech)
	if !ok {
		return fmt.Errorf("%w (technique %v)", ErrNoTechnique, tech)
	}
	e.Tech = tech
	e.Shape = append(e.Shape[:0], t.Shape...)
	e.ChunkElems = cdc.chunkElems()
	e.Checksum, e.ChunkCRCs, e.sealed = 0, e.ChunkCRCs[:0], false
	return impl.encodeInto(cdc, e, as, t)
}

// EncodeDense builds the dense fallback stash chunk-parallel; see the
// package-level EncodeDense.
func (cdc Codec) EncodeDense(f floatenc.Format, t *tensor.Tensor) *EncodedStash {
	e := &EncodedStash{}
	cdc.EncodeDenseInto(e, f, t)
	return e
}

// EncodeDenseInto is EncodeDense building into a caller-owned container,
// reusing its packed backing array when capacity allows (what the executor
// and the adaptive fallback use).
func (cdc Codec) EncodeDenseInto(e *EncodedStash, f floatenc.Format, t *tensor.Tensor) {
	var start time.Time
	if cdc.Tel != nil {
		start = time.Now()
	}
	e.Tech = DPR
	e.Shape = append(e.Shape[:0], t.Shape...)
	e.ChunkElems = cdc.chunkElems()
	e.Checksum, e.ChunkCRCs, e.sealed = 0, e.ChunkCRCs[:0], false
	e.Packed = cdc.encodePackedInto(e.Packed, f, t.Data)
	if cdc.Tel != nil {
		cdc.observe("encode", DPR, start, e.Bytes(), nil)
	}
}

// observe records one codec operation: latency histogram, call and byte
// counters (all keyed by technique), an error counter, and — when the
// sink has tracing armed — a complete trace event covering the call.
func (cdc Codec) observe(op string, tech Technique, start time.Time, bytes int64, err error) {
	name := op + "." + tech.String()
	cdc.Tel.Histogram("codec." + name + ".ns").Observe(time.Since(start).Nanoseconds())
	cdc.Tel.Counter("codec." + name + ".calls").Inc()
	if bytes > 0 {
		cdc.Tel.Counter("codec." + name + ".bytes").Add(bytes)
	}
	if err != nil {
		cdc.Tel.Counter("codec." + op + ".errors").Inc()
	}
	cdc.Tel.Complete("codec", name, start)
}

// encodeTechObserved is encodeTechInto wrapped with the same telemetry
// EncodeStashInto records, keyed by the technique actually attempted — the
// adaptive chain uses it so each fallback step shows up under its own name.
func (cdc Codec) encodeTechObserved(e *EncodedStash, tech Technique, as *Assignment, t *tensor.Tensor) error {
	if cdc.Tel == nil {
		return cdc.encodeTechInto(e, tech, as, t)
	}
	start := time.Now()
	err := cdc.encodeTechInto(e, tech, as, t)
	var held int64
	if err == nil {
		held = e.Bytes()
	}
	cdc.observe("encode", tech, start, held, err)
	return err
}

// EncodeStashAdaptive encodes per the assignment, walking the assignment's
// fallback chain when the runtime data defeats the planned encoding; see
// the package-level variant.
func (cdc Codec) EncodeStashAdaptive(as *Assignment, t *tensor.Tensor) (e *EncodedStash, fellBack bool, err error) {
	e = &EncodedStash{}
	fellBack, err = cdc.EncodeStashAdaptiveInto(e, as, t)
	if err != nil {
		return nil, fellBack, err
	}
	return e, fellBack, nil
}

// EncodeStashAdaptiveInto is EncodeStashAdaptive building into a
// caller-owned container. The planned technique is tried first; each
// ErrStashTooLarge steps to the next entry of as.Fallbacks (cheaper
// predicted encodings the planner ranked behind the primary), and when the
// chain is exhausted the stash is rebuilt in the same container as the
// dense DPR encoding, which cannot fail. Every step is counted on
// codec.encode.fallbacks.
func (cdc Codec) EncodeStashAdaptiveInto(e *EncodedStash, as *Assignment, t *tensor.Tensor) (fellBack bool, err error) {
	err = cdc.EncodeStashInto(e, as, t)
	for _, tech := range as.Fallbacks {
		if !errors.Is(err, ErrStashTooLarge) {
			break
		}
		cdc.Tel.Counter("codec.encode.fallbacks").Inc()
		fellBack = true
		err = cdc.encodeTechObserved(e, tech, as, t)
	}
	if errors.Is(err, ErrStashTooLarge) {
		cdc.Tel.Counter("codec.encode.fallbacks").Inc()
		cdc.EncodeDenseInto(e, as.Format, t)
		return true, nil
	}
	return fellBack, err
}

// fromPositiveInto builds the Binarize mask chunk-parallel into m (a nil m
// allocates a fresh one): each chunk owns whole 64-bit words (chunk
// boundaries are 768-aligned).
func (cdc Codec) fromPositiveInto(m *bitpack.BitMask, xs []float32) *bitpack.BitMask {
	if m == nil {
		m = bitpack.NewBitMask(len(xs))
	} else {
		m.Reset(len(xs))
	}
	if ce, serial := cdc.serialChunks(len(xs)); serial {
		for lo := 0; lo < len(xs); lo += ce {
			m.FillPositiveRange(xs, lo, min(lo+ce, len(xs)))
		}
	} else {
		cdc.forChunks(len(xs), func(lo, hi int) {
			m.FillPositiveRange(xs, lo, hi)
		})
	}
	return m
}

// quantizedCopy copies and DPR-quantizes xs chunk-parallel, for the SSDC
// value-array reduction. The scratch comes from Buf when one is configured
// (the caller recycles it after the CSR is built) and the heap otherwise.
func (cdc Codec) quantizedCopy(f floatenc.Format, xs []float32) []float32 {
	var dst []float32
	if cdc.Buf != nil {
		dst = cdc.Buf.GetSlice(len(xs))
	} else {
		dst = make([]float32, len(xs))
	}
	if ce, serial := cdc.serialChunks(len(xs)); serial {
		for lo := 0; lo < len(xs); lo += ce {
			hi := min(lo+ce, len(xs))
			copy(dst[lo:hi], xs[lo:hi])
			floatenc.QuantizeSlice(f, dst[lo:hi])
		}
	} else {
		cdc.forChunks(len(xs), func(lo, hi int) {
			copy(dst[lo:hi], xs[lo:hi])
			floatenc.QuantizeSlice(f, dst[lo:hi])
		})
	}
	return dst
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
	if ce, serial := cdc.serialChunks(len(xs)); serial {
		for lo := 0; lo < len(xs); lo += ce {
			p.EncodeRange(xs, lo, min(lo+ce, len(xs)))
		}
	} else {
		cdc.forChunks(len(xs), func(lo, hi int) {
			p.EncodeRange(xs, lo, hi)
		})
	}
	return p
}

// Decode materializes the FP32 staging tensor chunk-parallel; see the
// package-level EncodedStash.Decode for semantics. A sealed stash is
// verified (per chunk) first, and structurally damaged payloads surface as
// typed errors rather than index panics, so Decode never panics on
// corrupted or deserialized input.
func (cdc Codec) Decode(e *EncodedStash) (*tensor.Tensor, error) {
	if cdc.Tel == nil {
		return cdc.decode(e)
	}
	start := time.Now()
	out, err := cdc.decode(e)
	var raw int64
	if out != nil {
		raw = out.Bytes()
	}
	cdc.observe("decode", e.Tech, start, raw, err)
	return out, err
}

// DecodeInto is Decode writing into a caller-provided destination tensor of
// the stash's shape — the executor allocates the decode target when it arms
// the stash's future and takes it back when the future resolves. Every
// element of dst is overwritten (decode kernels fully cover the payload),
// so a recycled buffer needs no pre-clearing. On error dst's contents are
// unspecified. Output is identical to Decode.
func (cdc Codec) DecodeInto(dst *tensor.Tensor, e *EncodedStash) error {
	if cdc.Tel == nil {
		return cdc.decodeInto(dst, e)
	}
	start := time.Now()
	err := cdc.decodeInto(dst, e)
	var raw int64
	if err == nil {
		raw = dst.Bytes()
	}
	cdc.observe("decode", e.Tech, start, raw, err)
	return err
}

func (cdc Codec) decode(e *EncodedStash) (*tensor.Tensor, error) {
	out := tensor.New(e.Shape...)
	if err := cdc.decodeInto(out, e); err != nil {
		return nil, err
	}
	return out, nil
}

func (cdc Codec) decodeInto(out *tensor.Tensor, e *EncodedStash) error {
	if err := cdc.Verify(e); err != nil {
		return err
	}
	if !out.Shape.Equal(e.Shape) {
		return fmt.Errorf("%w: destination shape %v, stash shape %v", ErrShapeMismatch, out.Shape, e.Shape)
	}
	impl, ok := techImpl(e.Tech)
	if !ok {
		return fmt.Errorf("%w (technique %v)", ErrNoTechnique, e.Tech)
	}
	return impl.decodeInto(cdc, out, e)
}

// nil-tolerant accessors for error messages on malformed stashes.
func maskBits(m *bitpack.BitMask) int {
	if m == nil {
		return 0
	}
	return m.Len()
}

func csrN(c *sparse.CSR) int {
	if c == nil {
		return 0
	}
	return c.N
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
		cdc.Tel.Counter("codec.crc.failures").Inc()
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
	scratch := crcScratch.Get().(*[]uint32)
	defer crcScratch.Put(scratch)
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
		// (technique or shape) or the sealed checksum itself was altered.
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
	// offsets are -1 for SSDC and ZVC, whose chunks span several backing
	// arrays (see ChunkSpan).
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

// CorruptedChunk extracts the failing chunk index from a Verify or Decode
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
// single array (Binarize mask words, DPR packed words, entropy streams),
// the byte offsets [byteLo, byteHi) of that range within the array — the
// region whose CRC the chunk seals. Techniques whose chunks span several
// backing arrays (SSDC, ZVC), and payloads that do not fit the chunk
// layout, report byte offsets of -1.
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
