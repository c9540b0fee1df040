package encoding

import (
	"fmt"
	"sort"
	"strings"

	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// The technique registry. Every container the runtime can encode is
// backed by one techniqueImpl that plugs the chunked codec's generic
// machinery — encode, payload layout (and with it the wire format), cost
// models — so a new codec registers here instead of patching switch
// statements across chunked.go / runtime.go / marshal.go. The
// Binarize/DPR/ZVC implementations live in tech_*.go. SSDC is a planning
// model only (ssdcModel, beside its size model): it has a name and cost
// models but no container, so it is not registered.

// techniqueModel is what the planner and the cost model know of a
// technique: its name and its modeled size and time.
type techniqueModel interface {
	// name is the paper's name for the technique (Technique.String).
	name() string

	// planBytes is the planning-time footprint model: the predicted
	// encoded bytes of an n-element stash at the given sparsity and DPR
	// format. Analyze's walk checks SSDC and ZVC against their bounds on it.
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

// techniqueImpl is the per-technique plug point of the chunked codec: a
// technique model the runtime can also hold. Implementations must be
// stateless values: one instance serves every codec and stash
// concurrently.
type techniqueImpl interface {
	techniqueModel

	// encodeInto builds the technique payload into e from t, reusing e's
	// backing arrays when capacity allows. The caller has already reset
	// e's header (Tech/Shape/ChunkElems/seal state). as supplies the
	// format and sparsity context; implementations must not read as.Tech,
	// which differs during the dense fallback re-encode.
	encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error

	// layout states the held payload — the backing arrays in hash order,
	// how each is cut into chunks of ce elements, and whether their
	// lengths fit that chunk layout — from which layout.go derives the
	// footprint, the corruption surface, attribution and both checksums.
	// It must tolerate any stash the unmarshaller or a test can build
	// (nil payloads, garbage formats, mismatched lengths) without panic.
	layout(e *EncodedStash, ce int) payloadLayout

	// unmarshalPayload reads the layout's wire header words into e and
	// sizes e's payload arrays for the segments that follow, reusing them,
	// after checking their bytes against what the input has left; the
	// reader then fills the segments layout states. It returns the
	// advanced reader.
	unmarshalPayload(e *EncodedStash, r WireReader) WireReader
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

// techModel looks up a technique's model: its implementation, or SSDC's
// planning model.
func techModel(t Technique) (techniqueModel, bool) {
	if t == SSDC {
		return ssdcModel{}, true
	}
	return techImpl(t)
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

// ParseTechnique resolves a case-insensitive runtime technique name
// ("none", "binarize", "dpr", "zvc") to its Technique value; any other
// name — "ssdc", a planning model the runtime cannot hold, included — is
// an error that lists the accepted ones.
func ParseTechnique(s string) (Technique, error) {
	if strings.EqualFold(s, "none") {
		return None, nil
	}
	for t, impl := range techniques {
		if strings.EqualFold(s, impl.name()) {
			return t, nil
		}
	}
	return None, fmt.Errorf("encoding: unknown technique %q (want %s)", s, techniqueNames())
}

// techniqueNames lists the names ParseTechnique accepts, "|"-separated, in
// Technique order.
func techniqueNames() string {
	names := []string{"none"}
	for _, t := range RegisteredTechniques() {
		names = append(names, strings.ToLower(t.String()))
	}
	return strings.Join(names, "|")
}

// PlanBytes returns the planning-time footprint model of encoding an
// n-element stash with the technique at the given sparsity and DPR format
// (the dense FP32 size for None / unknown techniques).
func PlanBytes(t Technique, elems int, sparsity float64, f floatenc.Format) int64 {
	if m, ok := techModel(t); ok {
		return m.planBytes(elems, sparsity, f)
	}
	return int64(elems) * 4
}

// AddOverheadTime adds the roofline cost-model estimate of the technique's
// encode+decode time — given the device's stream-time function and the
// stash's dense and encoded byte sizes — to the accumulator acc and
// returns the new accumulator. None and unknown techniques cost nothing.
// Pass acc = 0 for a standalone per-stash estimate.
func AddOverheadTime(t Technique, acc float64, stream func(int64) float64, dense, enc int64) float64 {
	if m, ok := techModel(t); ok {
		return m.overheadTime(acc, stream, dense, enc)
	}
	return acc
}
