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
// decode, payload layout, wire format, cost models — so a new
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

	// layout states the held payload — the backing arrays in hash order,
	// how each is cut into chunks of ce elements, and whether their
	// lengths fit that chunk layout — from which layout.go derives the
	// footprint, the corruption surface, attribution and both checksums.
	// It must tolerate any stash the unmarshaller or a test can build
	// (nil payloads, garbage formats, mismatched lengths) without panic.
	layout(e *EncodedStash, ce int) payloadLayout

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
