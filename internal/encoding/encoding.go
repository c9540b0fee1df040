// Package encoding implements Gist's layer-specific encodings as
// graph-level analyses plus runtime kernels:
//
//   - Binarize (lossless): for ReLU layers all of whose backward-pass
//     readers are MaxPool layers, the stashed ReLU output is replaced by a
//     1-bit positive mask (32x) and each MaxPool consumer's stashed
//     input/output pair is replaced by a 4-bit Y-to-X argmax map (8x).
//   - ZVC (lossless): every other ReLU (or ReLU-fed Pool) output is held as
//     a 1-bit nonzero mask plus its compacted values, decoded (or read an
//     image at a time) at its backward use.
//   - DPR (lossy): every remaining stashed feature map is reduced to
//     FP16/FP10/FP8 after its last forward use; ZVC value arrays are
//     DPR-compressed too, while all control metadata (ZVC and Binarize
//     masks, argmax maps) stays exact.
//
// The paper's SSDC (narrow CSR for ReLU→Conv stashes) is a planning model
// only: Config.SSDC makes Analyze price those stashes as SSDC, so the
// paper's figures print what the paper's configuration holds, but the
// runtime holds no CSR — narrow CSR beats ZVC only above about 89 %
// sparsity — and an SSDC assignment fails to encode with ErrNoTechnique.
//
// Analyze inspects a graph and assigns at most one technique to every
// stashed feature map; the liveness and memory-planning packages consume
// the assignments, and the training executor runs the matching kernels.
package encoding

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
)

// Technique identifies which Gist encoding a stashed feature map uses.
type Technique int

// Techniques, in priority order. Binarize/SSDC/DPR are the paper's three
// encodings; ZVC (zero-value compression: nonzero bitmask + compacted
// values) holds every sparse stash the runtime encodes, in SSDC's place.
// The values are the wire format's technique word; SSDC's is no longer
// registered, so a blob that carries it fails with ErrNoTechnique.
const (
	None Technique = iota
	Binarize
	SSDC
	DPR
	ZVC
	numTechniques // one past the last Technique value
)

// String returns the paper's name for the technique, resolved through the
// technique registry (SSDC's through its planning model).
func (t Technique) String() string {
	if t == None {
		return "None"
	}
	if m, ok := techModel(t); ok {
		return m.name()
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// Config selects which encodings the Schedule Builder may apply.
type Config struct {
	// Binarize enables the 1-bit ReLU-Pool encoding.
	Binarize bool
	// SSDC prices ReLU-Conv / Pool-Conv stashes as the paper's narrow CSR.
	// It is a planning model for the paper's figures: the runtime encodes
	// no SSDC, so a trainer given an SSDC assignment fails its first step
	// with ErrNoTechnique.
	SSDC bool
	// DPR, when not FP32, applies delayed precision reduction at the given
	// format to all remaining stashes and to sparse value arrays.
	DPR floatenc.Format
	// ZVC enables zero-value compression (nonzero bitmask + compacted
	// values) for every sparse stash where it beats the dense stash at the
	// DPR format.
	ZVC bool
	// AdaptiveSet, when non-empty, replaces the ZVC flag with the set's
	// membership when Analyze starts; the walk then runs as usual. No
	// other member changes anything: DPR alone decides dense packing, and
	// SSDC is a planning model, not a container the runtime picks.
	AdaptiveSet []Technique
	// Inplace enables ReLU inplace computation (an optimization for
	// immediately consumed data, not an encoding, but applied by the same
	// Schedule Builder pass).
	Inplace bool
	// FCIsConvLike treats fully connected layers like convolutions for
	// SSDC's planning purposes (their backward passes read X identically).
	// The paper's taxonomy names only convolution; default matches it.
	FCIsConvLike bool
	// Sparsity predicts the zero fraction of a node's output at planning
	// time. Nil uses DefaultSparsity.
	Sparsity func(n *graph.Node) float64
}

// WithTechnique returns a copy of the configuration narrowed to one
// technique: every technique selection is cleared, then only the named
// technique's pass is re-enabled. DPR keeps the configured format but
// defaults to FP16 when the base left precision reduction off (a DPR
// selection that reduced nothing would be a no-op); None turns every
// encoding off. The consolidated -technique flags resolve through this.
func (c Config) WithTechnique(t Technique) Config {
	c.Binarize, c.SSDC, c.ZVC, c.AdaptiveSet = false, false, false, nil
	switch t {
	case Binarize:
		c.Binarize = true
	case SSDC:
		c.SSDC = true
	case ZVC:
		c.ZVC = true
	case DPR:
		if c.DPR == floatenc.FP32 {
			c.DPR = floatenc.FP16
		}
	case None:
		c.DPR = floatenc.FP32
		c.Inplace = false
	}
	return c
}

// WithTechniqueName applies a technique named by a flag or a job spec: ""
// changes nothing, "adaptive" (any case) selects AdaptiveAll — ZVC for
// every sparse stash with the dense DPR fallback — and any other name must
// parse and narrows to that technique.
func (c Config) WithTechniqueName(name string) (Config, error) {
	if name == "" {
		return c, nil
	}
	if strings.EqualFold(name, "adaptive") {
		c.AdaptiveSet = AdaptiveAll()
		return c, nil
	}
	t, err := ParseTechnique(name)
	if err != nil {
		return c, fmt.Errorf("encoding: unknown technique %q (want %s|adaptive)", name, techniqueNames())
	}
	return c.WithTechnique(t), nil
}

// Enabled reports whether the configuration selects any encoding, rewrite
// or adaptive set at all (the zero Config is the no-encoding baseline).
func (c Config) Enabled() bool {
	return c.Binarize || c.SSDC || c.ZVC || c.Inplace ||
		c.DPR != floatenc.FP32 || len(c.AdaptiveSet) > 0
}

// AdaptiveAll is the adaptive set the consolidated -technique flags name
// "adaptive": ZVC, whose size follows from the nonzero count known when
// the stash is encoded, for every sparse stash, and dense DPR — the
// one-hop runtime fallback of Codec.EncodeStashAdaptiveInto — for the
// rest.
func AdaptiveAll() []Technique { return []Technique{ZVC, DPR} }

// Lossless is the runtime's lossless configuration: Binarize + ZVC +
// inplace — the paper's, with ZVC holding the stashes it gives SSDC.
func Lossless() Config {
	return Config{Binarize: true, ZVC: true, DPR: floatenc.FP32, Inplace: true}
}

// LossyLossless is lossless plus DPR at the given format — the paper's
// full "Gist" configuration, with ZVC in SSDC's place.
func LossyLossless(f floatenc.Format) Config {
	c := Lossless()
	c.DPR = f
	return c
}

// DefaultReLUSparsity is the planning-time zero-fraction assumed for ReLU
// outputs when no measured value is available. The paper reports ReLU
// sparsity typically in the 50-90% band (over 80% for VGG16); 0.7 is the
// middle of that band and is calibrated against the paper's end-to-end MFR.
const DefaultReLUSparsity = 0.7

// DefaultSparsity models output sparsity by kind: ReLU outputs use
// DefaultReLUSparsity; a MaxPool output keeps a zero only when its whole
// window is zero, so its sparsity is the input sparsity raised to the
// window size; everything else is dense.
func DefaultSparsity(n *graph.Node) float64 {
	switch n.Kind() {
	case layers.ReLU:
		return DefaultReLUSparsity
	case layers.MaxPool:
		if len(n.Inputs) == 1 && n.Inputs[0].Kind() == layers.ReLU {
			p := n.Op.(*layers.MaxPoolOp)
			return math.Pow(DefaultReLUSparsity, float64(p.K*p.K))
		}
	}
	return 0
}

// Assignment records the encoding chosen for one stashed feature map.
type Assignment struct {
	Node *graph.Node
	Tech Technique
	// Format is the DPR format applied to the stash (FP32 when DPR is off;
	// for ZVC and SSDC it compresses only the value array).
	Format floatenc.Format
	// Sparsity is the planning-time zero fraction used for ZVC and SSDC
	// sizing.
	Sparsity float64
	// EncodedBytes is the size of the encoded representation stashed
	// between the two uses.
	EncodedBytes int64
	// NeedsDecode reports whether the stash is decoded into a transient
	// FP32 staging buffer before its backward use: true for ZVC and DPR
	// unless every backward reader is a Conv, an FC or the ReLU that
	// produced the map (readAsStored); false for Binarize, whose mask the
	// backward kernel consumes directly. liveness plans the
	// staging buffer from it, and the executor reads it: a stash without it
	// reaches its kernels through the reader Codec.OpenStored opens — the
	// one Conv and FC decode an image at a time from — and a mask for the
	// ReLU (a Binarize mask as stored), with no whole-map decode and no
	// pooled target.
	NeedsDecode bool
}

// Analysis is the output of the Gist static analysis over one graph.
type Analysis struct {
	Graph  *graph.Graph
	Config Config
	// ByNode maps node ID to the assignment for that node's stashed
	// output feature map. Only stashed outputs appear.
	ByNode map[int]*Assignment
	// PoolMaps lists MaxPool nodes whose stashed X/Y pair was replaced by
	// a 4-bit argmax map (the Binarize pool-side rewrite).
	PoolMaps map[int]int64 // pool node ID -> argmax map bytes
	// effectiveNeeds overrides op Needs for rewritten backward passes.
	effectiveNeeds map[int]layers.BackwardNeeds
}

// EffectiveNeeds returns the backward-pass stash requirements of node n
// after Gist's rewrites (a Binarize-optimized MaxPool no longer needs X or
// Y).
func (a *Analysis) EffectiveNeeds(n *graph.Node) layers.BackwardNeeds {
	if needs, ok := a.effectiveNeeds[n.ID]; ok {
		return needs
	}
	return n.Op.Needs()
}

// OutputStashed reports whether node n's output feature map still has a
// backward-pass reader under the effective needs.
func (a *Analysis) OutputStashed(n *graph.Node) bool {
	if a.EffectiveNeeds(n).Y {
		return true
	}
	for _, c := range n.Consumers() {
		if a.EffectiveNeeds(c).X {
			return true
		}
	}
	return false
}

// convLike reports whether a node's backward pass reads its input as dense
// values (the condition that rules out Binarize and invites SSDC).
func convLike(cfg Config, k layers.Kind) bool {
	if k == layers.Conv {
		return true
	}
	return cfg.FCIsConvLike && k == layers.FC
}

// sparseStash reports whether node n's output carries a ReLU-induced zero
// pattern (a ReLU, or a MaxPool fed directly by one) — the precondition
// for the sparsity-exploiting encodings.
func sparseStash(n *graph.Node) bool {
	if n.Kind() == layers.ReLU {
		return true
	}
	return n.Kind() == layers.MaxPool && len(n.Inputs) == 1 && n.Inputs[0].Kind() == layers.ReLU
}

// ssdcEligible reports whether SSDC can serve node n's stash at planning
// time: a sparse stash, sparse enough for narrow CSR, that a convolution-
// like consumer reads as X.
func ssdcEligible(cfg Config, n *graph.Node, s float64) bool {
	if !sparseStash(n) || s < BreakEvenSparsity(1) {
		return false
	}
	for _, c := range n.Consumers() {
		if convLike(cfg, c.Kind()) && c.Op.Needs().X {
			return true
		}
	}
	return false
}

// choose picks the container of node n's stash, or nil to leave it raw.
// The runtime's one sparse rule is ZVC's: a sparse stash is ZVC where ZVC
// beats the dense stash at the DPR format. The paper's SSDC, a planning
// model, goes first when enabled: a sparse stash that a convolution-like
// consumer reads is priced as SSDC where that beats the raw FP32 stash
// (tiny stashes lose to CSR's row pointers). Whatever is left is
// DPR-packed when precision reduction is on.
func choose(cfg Config, n *graph.Node) *Assignment {
	s := cfg.Sparsity(n)
	elems := n.OutShape.NumElements()
	raw, dense := n.OutShape.Bytes(), cfg.DPR.PackedBytes(elems)
	assign := func(tech Technique, bytes int64) *Assignment {
		return &Assignment{Node: n, Tech: tech, Format: cfg.DPR, Sparsity: s,
			EncodedBytes: bytes}
	}
	if cfg.SSDC && ssdcEligible(cfg, n, s) {
		if b := PlanBytes(SSDC, elems, s, cfg.DPR); b < raw {
			return assign(SSDC, b)
		}
	}
	if cfg.ZVC && sparseStash(n) {
		if b := PlanBytes(ZVC, elems, s, cfg.DPR); b < dense {
			return assign(ZVC, b)
		}
	}
	if cfg.DPR == floatenc.FP32 {
		return nil
	}
	as := assign(DPR, dense)
	as.Sparsity = 0 // the packed stash is dense: no zero pattern sizes it
	return as
}

// Analyze runs the Gist pattern analysis over the graph and assigns an
// encoding to every stashed feature map permitted by the configuration.
func Analyze(g *graph.Graph, cfg Config) *Analysis {
	if cfg.Sparsity == nil {
		cfg.Sparsity = DefaultSparsity
	}
	if len(cfg.AdaptiveSet) > 0 {
		cfg.ZVC = slices.Contains(cfg.AdaptiveSet, ZVC)
	}
	a := &Analysis{
		Graph:          g,
		Config:         cfg,
		ByNode:         map[int]*Assignment{},
		PoolMaps:       map[int]int64{},
		effectiveNeeds: map[int]layers.BackwardNeeds{},
	}

	// Pass 1 — the MaxPool rewrite: the paper's optimized pool backward
	// uses a 4-bit Y-to-X argmax map recorded in the forward pass instead
	// of rescanning its stashed input and output (Section IV-A), removing
	// the pool's X and Y dependence for every MaxPool in the graph.
	if cfg.Binarize {
		for _, n := range g.Nodes {
			if n.Kind() != layers.MaxPool {
				continue
			}
			a.PoolMaps[n.ID] = argmaxMapBytes(n.OutShape.NumElements())
			a.effectiveNeeds[n.ID] = layers.BackwardNeeds{}
		}
	}

	// Pass 2 — Binarize: with pools rewritten, a ReLU none of whose
	// remaining backward readers needs dense X values keeps only its own
	// sign dependence, which the 1-bit mask serves (32x).
	if cfg.Binarize {
		for _, n := range g.Nodes {
			if n.Kind() != layers.ReLU || len(n.Consumers()) == 0 {
				continue
			}
			ok := true
			for _, c := range n.Consumers() {
				if a.EffectiveNeeds(c).X {
					ok = false
				}
			}
			if !ok {
				continue
			}
			elems := n.OutShape.NumElements()
			if binarizeMaskBytes(elems) >= n.OutShape.Bytes() {
				continue // sub-word stash: the mask would not shrink it
			}
			a.ByNode[n.ID] = &Assignment{
				Node:         n,
				Tech:         Binarize,
				Format:       floatenc.FP32,
				EncodedBytes: binarizeMaskBytes(elems),
			}
			a.effectiveNeeds[n.ID] = layers.BackwardNeeds{} // Y served by the mask
		}
	}

	// Pass 3 — one selection walk: every stashed node the rewrites left
	// unassigned gets its container from choose. Passes 1–2 fixed every
	// effective need and choose reads only its own node, so visiting node
	// by node gives what sweeping technique by technique would.
	for _, n := range g.Nodes {
		if _, done := a.ByNode[n.ID]; done || !a.OutputStashed(n) {
			continue
		}
		if as := choose(cfg, n); as != nil {
			as.NeedsDecode = !a.readAsStored(n)
			a.ByNode[n.ID] = as
		}
	}
	return a
}

// readAsStored reports whether every backward reader of node n's stash
// reads its container (ZVC or DPR) as stored: the consumers that read
// it as X are Convs, FCs and BatchNorms, which read X one image after
// another and so can decode it an image at a time, and n reads its own
// output only if it is a ReLU, which reads the sign.
func (a *Analysis) readAsStored(n *graph.Node) bool {
	if a.EffectiveNeeds(n).Y && n.Kind() != layers.ReLU {
		return false
	}
	for _, c := range n.Consumers() {
		byImage := c.Kind() == layers.Conv || c.Kind() == layers.FC || c.Kind() == layers.BatchNorm
		if a.EffectiveNeeds(c).X && !byImage {
			return false
		}
	}
	return true
}

// binarizeMaskBytes is the packed size of a 1-bit mask over n elements.
func binarizeMaskBytes(n int) int64 {
	return int64((n+63)/64) * 8
}

// argmaxMapBytes is the packed size of a 4-bit argmax map over n pool
// outputs.
func argmaxMapBytes(n int) int64 {
	return int64((n+7)/8) * 4
}

// ssdcModel is the paper's sparse storage / dense compute encoding
// (Section IV-B) as the planner prices it: the stash held in narrow CSR
// between its uses, with the value array packed at the DPR format. It is
// not a registered container — the runtime holds such a stash as ZVC — so
// its name and cost-model hooks sit here, beside its size model, and the
// registry's lookups fall back to them.
type ssdcModel struct{}

func (ssdcModel) name() string { return "SSDC" }

func (ssdcModel) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return ssdcBytes(elems, sparsity, f)
}

func (ssdcModel) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// A dense→CSR pass at encode (read dense, write sparse) and a
	// CSR→dense pass at decode, via cuSPARSE-style kernels; modeled as
	// three streaming passes over the dense size.
	t += float64(3 * stream(dense))
	// Decode writes the dense staging buffer.
	t += stream(dense)
	return t
}

// ssdcBytes models the narrow-CSR footprint of an n-element stash at the
// given sparsity, with the value array optionally DPR-compressed.
func ssdcBytes(n int, sparsity float64, f floatenc.Format) int64 {
	return SSDCBytes(n, NNZAt(n, sparsity), f)
}

// SSDCBytes is the exact size SSDC would hold for an n-element map with
// nnz nonzeros at format f: the value words packed at f, one column byte
// per nonzero and the narrow CSR's row pointers.
func SSDCBytes(n, nnz int, f floatenc.Format) int64 {
	return CSRBytes(n, nnz, f.PackedBytes(nnz))
}

// zvcBytes models the ZVC footprint of an n-element stash at the given
// sparsity: the 1-bit nonzero mask plus the surviving values, credited at
// the packed DPR width when a format is layered on.
func zvcBytes(n int, sparsity float64, f floatenc.Format) int64 {
	nnz := int(float64(float64(n)*(1-sparsity)) + 0.5)
	return binarizeMaskBytes(n) + f.PackedBytes(nnz)
}

// CompressionRatio returns FP32 bytes over encoded bytes for the
// assignment's stash.
func (as *Assignment) CompressionRatio() float64 {
	fp32 := as.Node.OutShape.Bytes()
	return float64(fp32) / float64(as.EncodedBytes)
}
