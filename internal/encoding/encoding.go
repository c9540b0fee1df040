// Package encoding implements Gist's three layer-specific encodings as
// graph-level analyses plus runtime kernels:
//
//   - Binarize (lossless): for ReLU layers all of whose backward-pass
//     readers are MaxPool layers, the stashed ReLU output is replaced by a
//     1-bit positive mask (32x) and each MaxPool consumer's stashed
//     input/output pair is replaced by a 4-bit Y-to-X argmax map (8x).
//   - SSDC (lossless): for ReLU (or ReLU-fed Pool) outputs read by
//     convolution-like backward passes, the stash is stored in narrow-CSR
//     between its uses and decoded to dense FP32 just before the backward
//     use.
//   - DPR (lossy): every remaining stashed feature map is reduced to
//     FP16/FP10/FP8 after its last forward use; SSDC value arrays are
//     DPR-compressed too, while all control metadata (CSR indices, Binarize
//     masks, argmax maps) stays exact.
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
	"gist/internal/sparse"
)

// Technique identifies which Gist encoding a stashed feature map uses.
type Technique int

// Techniques, in priority order. Binarize/SSDC/DPR are the paper's three
// encodings; ZVC (zero-value compression: nonzero bitmask + compacted
// values) is the lossless tier layered on top, and the adaptive tier's
// technique. The values are the wire format's technique word.
const (
	None Technique = iota
	Binarize
	SSDC
	DPR
	ZVC
	numTechniques // one past the last Technique value
)

// String returns the paper's name for the technique, resolved through the
// technique registry.
func (t Technique) String() string {
	if t == None {
		return "None"
	}
	if impl, ok := techImpl(t); ok {
		return impl.name()
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// Config selects which encodings the Schedule Builder may apply.
type Config struct {
	// Binarize enables the 1-bit ReLU-Pool encoding.
	Binarize bool
	// SSDC enables sparse storage for ReLU-Conv / Pool-Conv stashes.
	SSDC bool
	// DPR, when not FP32, applies delayed precision reduction at the given
	// format to all remaining stashes and to SSDC value arrays.
	DPR floatenc.Format
	// ZVC enables zero-value compression (nonzero bitmask + compacted
	// values) for sparse stashes SSDC did not claim.
	ZVC bool
	// AdaptiveSet, when non-empty, replaces the SSDC and ZVC flags with
	// the set's membership when Analyze starts, and the fixed walk runs as
	// usual, so AdaptiveAll() ({ZVC, DPR}) is the base configuration with
	// ZVC in SSDC's place. DPR in a set changes nothing (the DPR
	// format alone decides dense packing), so {ZVC} at a reduced format
	// plans dense DPR where ZVC would not beat it, {DPR} turns SSDC off
	// rather than keeping the base's flag, and a set holding both SSDC
	// and ZVC takes the fixed SSDC-then-ZVC order.
	AdaptiveSet []Technique
	// Inplace enables ReLU inplace computation (an optimization for
	// immediately consumed data, not an encoding, but applied by the same
	// Schedule Builder pass).
	Inplace bool
	// FCIsConvLike treats fully connected layers like convolutions for
	// SSDC purposes (their backward passes read X identically). The
	// paper's taxonomy names only convolution; default matches it.
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
// changes nothing, "adaptive" (any case) selects AdaptiveAll — the base
// configuration with ZVC in SSDC's place — and any other name must parse
// and narrows to that technique.
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
// the stash is encoded, where SSDC would go, and dense DPR — the one-hop
// runtime fallback of Codec.EncodeStashAdaptiveInto — for the rest. SSDC
// stays the paper's fixed technique (Lossless, -technique ssdc).
func AdaptiveAll() []Technique { return []Technique{ZVC, DPR} }

// Lossless is the paper's "lossless" configuration: Binarize + SSDC +
// inplace.
func Lossless() Config {
	return Config{Binarize: true, SSDC: true, DPR: floatenc.FP32, Inplace: true}
}

// LossyLossless is lossless plus DPR at the given format — the paper's
// full "Gist" configuration.
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
	// for SSDC it compresses only the CSR value array).
	Format floatenc.Format
	// Sparsity is the planning-time zero fraction used for SSDC sizing.
	Sparsity float64
	// EncodedBytes is the size of the encoded representation stashed
	// between the two uses.
	EncodedBytes int64
	// NeedsDecode reports whether the stash is decoded into a transient
	// FP32 staging buffer before its backward use: true for SSDC, ZVC and
	// DPR unless every backward reader is a Conv, an FC or the ReLU that
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
// like consumer reads as X. The runtime cost guard still applies at encode.
func ssdcEligible(cfg Config, n *graph.Node, s float64) bool {
	if !sparseStash(n) || s < sparse.BreakEvenSparsity(1) {
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
// The first enabled technique — SSDC, then ZVC — that is eligible and
// beats its bound wins: the raw FP32 stash for SSDC (tiny stashes lose to
// CSR's row pointers), the dense stash at the DPR format for ZVC (any
// sparse stash is eligible). Whatever is left is DPR-packed when precision
// reduction is on.
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
		cfg.SSDC = slices.Contains(cfg.AdaptiveSet, SSDC)
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
// reads its container (SSDC, ZVC or DPR) as stored: the consumers that read
// it as X are Convs and FCs, which read X one image after another and so can
// decode it an image at a time, and n reads its own output only if it is a
// ReLU, which reads the sign.
func (a *Analysis) readAsStored(n *graph.Node) bool {
	if a.EffectiveNeeds(n).Y && n.Kind() != layers.ReLU {
		return false
	}
	for _, c := range n.Consumers() {
		if a.EffectiveNeeds(c).X && c.Kind() != layers.Conv && c.Kind() != layers.FC {
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

// ssdcBytes models the narrow-CSR footprint of an n-element stash at the
// given sparsity, with the value array optionally DPR-compressed.
func ssdcBytes(n int, sparsity float64, f floatenc.Format) int64 {
	base := sparse.CSRBytesModel(n, sparsity)
	if f == floatenc.FP32 {
		return base
	}
	nnz := int64(float64(float64(n)*(1-sparsity)) + 0.5)
	valueSavings := nnz*4 - f.PackedBytes(int(nnz))
	return base - valueSavings
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
