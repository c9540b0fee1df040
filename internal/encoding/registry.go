package encoding

import (
	"fmt"
	"sort"
	"strings"

	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// The technique registry. Every Technique value is backed by one
// techniqueImpl that plugs the chunked codec's generic machinery — encode,
// decode, seal, chunk attribution, wire format, cost models — so a new
// codec registers here instead of patching switch statements across
// chunked.go / runtime.go / marshal.go. The Binarize/SSDC/DPR
// implementations in tech_*.go are byte-for-byte migrations of the
// original switch arms (the golden fixtures pin this); ZVC and Entropy
// register the same way.

// techniqueImpl is the per-technique plug point of the chunked codec.
// Implementations must be stateless values: one instance serves every
// codec and stash concurrently.
type techniqueImpl interface {
	// name is the paper's name for the technique (Technique.String).
	name() string
	// wireVersion is the lowest serialized-stash container version that
	// can carry this technique's payload: 1 for the original "GSTS"
	// format (whose byte layout is frozen), 2 for "GST2" additions.
	wireVersion() int

	// encodeInto builds the technique payload into e from t, reusing e's
	// backing arrays when capacity allows. The caller has already reset
	// e's header (Tech/Shape/ChunkElems/seal state). as supplies the
	// format and sparsity context; implementations must not read as.Tech,
	// which may differ during adaptive fallback re-encodes.
	encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error
	// decodeInto expands the payload into out (shape already matched
	// against e.Shape). It must validate payload structure and return
	// typed errors — never panic — on damaged input.
	decodeInto(cdc Codec, out *tensor.Tensor, e *EncodedStash) error

	// payloadElems is the element count the chunk layout spans.
	payloadElems(e *EncodedStash) int
	// bytes is the held representation's storage footprint.
	bytes(e *EncodedStash) int64
	// payloadBits is the fault injector's corruption surface.
	payloadBits(e *EncodedStash) int
	// flipBit inverts payload bit i (bounds pre-checked by FlipBit).
	flipBit(e *EncodedStash, i int)
	// chunkOfBit maps payload bit i to the chunk whose CRC detects its
	// flip, under chunk size ce and chunk count nc.
	chunkOfBit(e *EncodedStash, i, ce, nc int) int
	// chunkSpanBytes returns the byte offsets of elements [elemLo,
	// elemHi) within the payload's backing array, or -1, -1 when the
	// payload spans multiple arrays.
	chunkSpanBytes(e *EncodedStash, elemLo, elemHi int) (byteLo, byteHi int64)

	// checksumPayload streams the payload into the serial whole-payload
	// checksum exactly as the chunked roll-up reproduces it.
	checksumPayload(e *EncodedStash, w *crcWriter)
	// chunkChecksums hashes every chunk's payload pieces on the codec's
	// pool and returns the per-chunk CRCs plus the roll-up (== the serial
	// checksum). ok = false means the payload's structure does not fit
	// the chunk layout and the caller must fall back to the serial
	// whole-payload checksum. chunks reuses dst's backing array when that
	// has the capacity.
	chunkChecksums(cdc Codec, e *EncodedStash, ce int, hcrc uint32, dst []uint32) (full uint32, chunks []uint32, ok bool)

	// marshalPayload appends the wire payload to out; unmarshalPayload
	// parses it back through the bounds-checked reader.
	marshalPayload(e *EncodedStash, out []byte) ([]byte, error)
	unmarshalPayload(e *EncodedStash, r *stashReader)

	// planBytes is the planning-time footprint model: the predicted
	// encoded bytes of an n-element stash at the given sparsity and DPR
	// format. Analyze's adaptive selector arbitrates techniques on it.
	planBytes(elems int, sparsity float64, f floatenc.Format) int64
	// overheadTime is the roofline cost-model hook: it adds the modeled
	// encode+decode time of one stash (dense and encoded byte sizes, the
	// device's stream-time function) to the accumulator t and returns the
	// new accumulator. The accumulate-and-return shape preserves the cost
	// model's exact floating-point evaluation order (t += a; t -= b is
	// not bit-identical to t += a - b). A net subtraction models a
	// bandwidth saving.
	overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64
}

// techniques is the registry, populated by registerTechnique from each
// tech_*.go init. Reads vastly outnumber the init-time writes; no lock is
// needed because the map is never mutated after package init.
var techniques = map[Technique]techniqueImpl{}

// registerTechnique installs the implementation behind a Technique value.
// It is called from init functions only; duplicate registration is a bug.
func registerTechnique(t Technique, impl techniqueImpl) {
	if _, dup := techniques[t]; dup {
		panic(fmt.Sprintf("encoding: technique %d registered twice", int(t)))
	}
	techniques[t] = impl
}

// techImpl looks up a technique's implementation.
func techImpl(t Technique) (techniqueImpl, bool) {
	impl, ok := techniques[t]
	return impl, ok
}

// RegisteredTechniques lists every registered technique in ascending
// Technique order (None is not registered — it has no payload).
func RegisteredTechniques() []Technique {
	ts := make([]Technique, 0, len(techniques))
	for t := range techniques {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// ParseTechnique resolves a case-insensitive technique name ("none",
// "binarize", "ssdc", "dpr", "zvc", "entropy") to its Technique value.
func ParseTechnique(s string) (Technique, error) {
	if strings.EqualFold(s, "none") {
		return None, nil
	}
	for t, impl := range techniques {
		if strings.EqualFold(s, impl.name()) {
			return t, nil
		}
	}
	return None, fmt.Errorf("encoding: unknown technique %q", s)
}

// PlanBytes returns the planning-time footprint model of encoding an
// n-element stash with the technique at the given sparsity and DPR format
// (the dense FP32 size for None / unregistered techniques).
func PlanBytes(t Technique, elems int, sparsity float64, f floatenc.Format) int64 {
	if impl, ok := techImpl(t); ok {
		return impl.planBytes(elems, sparsity, f)
	}
	return int64(elems) * 4
}

// AddOverheadTime adds the roofline cost-model estimate of the technique's
// encode+decode time — given the device's stream-time function and the
// stash's dense and encoded byte sizes — to the accumulator acc and
// returns the new accumulator. None and unregistered techniques cost
// nothing. Pass acc = 0 for a standalone per-stash estimate.
func AddOverheadTime(t Technique, acc float64, stream func(int64) float64, dense, enc int64) float64 {
	if impl, ok := techImpl(t); ok {
		return impl.overheadTime(acc, stream, dense, enc)
	}
	return acc
}

// clampChunk clamps a computed chunk index into [0, nc).
func clampChunk(c, nc int) int {
	if c >= nc {
		return nc - 1
	}
	if c < 0 {
		return 0
	}
	return c
}
