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
	"sort"
	"strings"

	"gist/internal/entropy"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/sparse"
)

// Technique identifies which Gist encoding a stashed feature map uses.
type Technique int

// Techniques, in priority order. Binarize/SSDC/DPR are the paper's three
// encodings; ZVC (zero-value compression: nonzero bitmask + compacted
// values) and Entropy (zero-run-length + Huffman over the packed bytes)
// are the lossless tier layered on top, selectable per layer by the
// adaptive planner.
const (
	None Technique = iota
	Binarize
	SSDC
	DPR
	ZVC
	Entropy
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
	// Entropy enables the generic ZRL+Huffman stage over packed stash
	// bytes — the expensive, highest-ratio lossless tier.
	Entropy bool
	// AdaptiveSet, when non-empty, replaces the fixed SSDC/ZVC/Entropy
	// priority passes with per-layer minimum-predicted-bytes selection
	// among the listed techniques; the runner-up techniques become the
	// assignment's runtime fallback chain. Binarize still runs first (it
	// rewrites backward needs, which runtime selection cannot), and DPR in
	// the set means "dense packed" as a selectable terminal.
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
	c.Binarize, c.SSDC, c.ZVC, c.Entropy, c.AdaptiveSet = false, false, false, false, nil
	switch t {
	case Binarize:
		c.Binarize = true
	case SSDC:
		c.SSDC = true
	case ZVC:
		c.ZVC = true
	case Entropy:
		c.Entropy = true
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
// changes nothing, "adaptive" (any case) selects AdaptiveAll's per-layer
// choice, and any other name must parse and narrows to that technique.
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
		return c, err
	}
	return c.WithTechnique(t), nil
}

// Enabled reports whether the configuration selects any encoding, rewrite
// or adaptive set at all (the zero Config is the no-encoding baseline).
func (c Config) Enabled() bool {
	return c.Binarize || c.SSDC || c.ZVC || c.Entropy || c.Inplace ||
		c.DPR != floatenc.FP32 || len(c.AdaptiveSet) > 0
}

// AdaptiveAll is the full lossless-tier adaptive set the consolidated
// -technique flags name "adaptive": per-layer minimum-predicted-bytes
// selection among SSDC, ZVC, Entropy and dense DPR.
func AdaptiveAll() []Technique { return []Technique{SSDC, ZVC, Entropy, DPR} }

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
	// NeedsDecode reports whether a transient FP32 staging buffer is
	// materialized before the backward use (true for SSDC, ZVC, Entropy
	// and DPR; false for Binarize, whose backward kernels consume the mask
	// directly).
	NeedsDecode bool
	// Fallbacks is the runtime degradation chain for adaptive encoding:
	// when the primary technique's cost guard fires (runtime sparsity
	// defeated the plan), these techniques are tried in order before the
	// dense DPR terminal. Populated by adaptive-set planning; empty
	// otherwise.
	Fallbacks []Technique
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

// adaptiveEligible reports whether the technique can serve node n's stash
// at planning time; the runtime cost guards still apply at encode.
func adaptiveEligible(cfg Config, n *graph.Node, tech Technique, s float64) bool {
	switch tech {
	case SSDC:
		if !sparseStash(n) || s < sparse.BreakEvenSparsity(1) {
			return false
		}
		for _, c := range n.Consumers() {
			if convLike(cfg, c.Kind()) && c.Op.Needs().X {
				return true
			}
		}
		return false
	case ZVC:
		return sparseStash(n)
	case Entropy:
		return true
	case DPR:
		return cfg.DPR != floatenc.FP32
	default:
		// Binarize rewrites backward needs in its own pass; None and
		// unknown techniques are never adaptive candidates.
		return false
	}
}

// runtimeFallback reports whether the technique's encoder carries a cost
// guard and so can be retried at runtime (dense DPR always succeeds;
// Binarize needs the analysis rewrite and cannot be chosen after the fact).
func runtimeFallback(t Technique) bool {
	return t == SSDC || t == ZVC || t == Entropy
}

// Analyze runs the Gist pattern analysis over the graph and assigns an
// encoding to every stashed feature map permitted by the configuration.
func Analyze(g *graph.Graph, cfg Config) *Analysis {
	if cfg.Sparsity == nil {
		cfg.Sparsity = DefaultSparsity
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

	// Pass 3a — adaptive selection: when an adaptive set is configured it
	// replaces the fixed SSDC/ZVC/Entropy priority passes below. Each
	// stashed node gets the minimum-predicted-bytes eligible technique;
	// the beaten runtime-retryable candidates become the fallback chain,
	// ordered by predicted size, so the encoder degrades along the
	// planner's own ranking when the runtime zero pattern disappoints.
	if len(cfg.AdaptiveSet) > 0 {
		for _, n := range g.Nodes {
			if _, done := a.ByNode[n.ID]; done {
				continue
			}
			if !a.OutputStashed(n) {
				continue
			}
			s := cfg.Sparsity(n)
			elems := n.OutShape.NumElements()
			type candidate struct {
				tech  Technique
				bytes int64
			}
			var cands []candidate
			for _, tech := range cfg.AdaptiveSet {
				if !adaptiveEligible(cfg, n, tech, s) {
					continue
				}
				b := PlanBytes(tech, elems, s, cfg.DPR)
				if b >= n.OutShape.Bytes() {
					continue // would not beat the raw FP32 stash
				}
				cands = append(cands, candidate{tech, b})
			}
			if len(cands) == 0 {
				continue // pass 4 may still DPR it
			}
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].bytes < cands[j].bytes })
			var fbs []Technique
			for _, c := range cands[1:] {
				if runtimeFallback(c.tech) {
					fbs = append(fbs, c.tech)
				}
			}
			a.ByNode[n.ID] = &Assignment{
				Node:         n,
				Tech:         cands[0].tech,
				Format:       cfg.DPR,
				Sparsity:     s,
				EncodedBytes: cands[0].bytes,
				NeedsDecode:  true,
				Fallbacks:    fbs,
			}
		}
	}

	// Pass 3 — SSDC: ReLU or (ReLU-fed) MaxPool outputs whose backward
	// readers include a convolution and whose predicted sparsity clears
	// the narrow-CSR break-even point.
	if cfg.SSDC {
		for _, n := range g.Nodes {
			if _, done := a.ByNode[n.ID]; done {
				continue
			}
			isReLU := n.Kind() == layers.ReLU
			isPoolAfterReLU := n.Kind() == layers.MaxPool &&
				len(n.Inputs) == 1 && n.Inputs[0].Kind() == layers.ReLU
			if !isReLU && !isPoolAfterReLU {
				continue
			}
			if !a.OutputStashed(n) {
				continue
			}
			feedsConv := false
			for _, c := range n.Consumers() {
				if convLike(cfg, c.Kind()) && c.Op.Needs().X {
					feedsConv = true
				}
			}
			if !feedsConv {
				continue
			}
			s := cfg.Sparsity(n)
			if s < sparse.BreakEvenSparsity(1) {
				continue // narrow CSR would not compress
			}
			elems := n.OutShape.NumElements()
			enc := ssdcBytes(elems, s, cfg.DPR)
			if enc >= n.OutShape.Bytes() {
				// Tiny stashes lose to CSR's fixed row-pointer overhead;
				// leave them for DPR.
				continue
			}
			a.ByNode[n.ID] = &Assignment{
				Node:         n,
				Tech:         SSDC,
				Format:       cfg.DPR,
				Sparsity:     s,
				EncodedBytes: enc,
				NeedsDecode:  true,
			}
		}
	}

	// Pass 3b — ZVC: sparse stashes SSDC did not claim (any backward
	// reader qualifies — ZVC decodes to dense for whoever reads it) whose
	// predicted footprint beats the dense alternative at the same format.
	if cfg.ZVC {
		for _, n := range g.Nodes {
			if _, done := a.ByNode[n.ID]; done {
				continue
			}
			if !sparseStash(n) || !a.OutputStashed(n) {
				continue
			}
			s := cfg.Sparsity(n)
			elems := n.OutShape.NumElements()
			enc := zvcBytes(elems, s, cfg.DPR)
			if enc >= cfg.DPR.PackedBytes(elems) {
				continue // the dense (possibly DPR-packed) stash is smaller
			}
			a.ByNode[n.ID] = &Assignment{
				Node:         n,
				Tech:         ZVC,
				Format:       cfg.DPR,
				Sparsity:     s,
				EncodedBytes: enc,
				NeedsDecode:  true,
			}
		}
	}

	// Pass 3c — Entropy: any remaining stash whose predicted ZRL+Huffman
	// stream beats the dense alternative. Nothing structural rules the
	// generic stage out; the cost model's heavy compute charge is what
	// keeps it from being picked when speed matters.
	if cfg.Entropy {
		for _, n := range g.Nodes {
			if _, done := a.ByNode[n.ID]; done {
				continue
			}
			if !a.OutputStashed(n) {
				continue
			}
			s := cfg.Sparsity(n)
			elems := n.OutShape.NumElements()
			enc := entropyBytes(elems, s, cfg.DPR)
			if enc >= cfg.DPR.PackedBytes(elems) {
				continue
			}
			a.ByNode[n.ID] = &Assignment{
				Node:         n,
				Tech:         Entropy,
				Format:       cfg.DPR,
				Sparsity:     s,
				EncodedBytes: enc,
				NeedsDecode:  true,
			}
		}
	}

	// Pass 4 — DPR: every remaining stashed feature map.
	if cfg.DPR != floatenc.FP32 {
		for _, n := range g.Nodes {
			if _, done := a.ByNode[n.ID]; done {
				continue
			}
			if !a.OutputStashed(n) {
				continue
			}
			elems := n.OutShape.NumElements()
			a.ByNode[n.ID] = &Assignment{
				Node:         n,
				Tech:         DPR,
				Format:       cfg.DPR,
				EncodedBytes: cfg.DPR.PackedBytes(elems),
				NeedsDecode:  true,
			}
		}
	}
	return a
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
	nnz := int64(float64(n)*(1-sparsity) + 0.5)
	valueSavings := nnz*4 - f.PackedBytes(int(nnz))
	return base - valueSavings
}

// zvcBytes models the ZVC footprint of an n-element stash at the given
// sparsity: the 1-bit nonzero mask plus the surviving values, credited at
// the packed DPR width when a format is layered on.
func zvcBytes(n int, sparsity float64, f floatenc.Format) int64 {
	nnz := int(float64(n)*(1-sparsity) + 0.5)
	return binarizeMaskBytes(n) + f.PackedBytes(nnz)
}

// entropyBytes models the ZRL+Huffman stream over the packed bytes of an
// n-element stash. Zero elements become zero bytes (≈2 bytes per 255-byte
// run); nonzero bytes stay literals with a mild Huffman gain (7/8); each
// chunk pays the fixed code-table overhead plus its block-length slot.
func entropyBytes(n int, sparsity float64, f floatenc.Format) int64 {
	if n == 0 {
		return 0
	}
	packed := float64(f.PackedBytes(n))
	zeros := packed * sparsity
	lits := packed - zeros
	nc := int64((n + DefaultChunkElems - 1) / DefaultChunkElems)
	return int64(lits*7/8+zeros/255*2+0.5) + nc*int64(entropy.TableBytes+4)
}

// CompressionRatio returns FP32 bytes over encoded bytes for the
// assignment's stash.
func (as *Assignment) CompressionRatio() float64 {
	fp32 := as.Node.OutShape.Bytes()
	return float64(fp32) / float64(as.EncodedBytes)
}
