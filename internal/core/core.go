// Package core is Gist's Schedule Builder — the system's public planning
// API. Given a DNN execution graph and an encoding configuration, it runs
// the static pattern analysis (which encodings apply where), rewrites the
// backward-pass dependences, performs the liveness analysis over the
// forward+backward timeline, and hands the resulting buffer lifetimes to
// the memory allocator. The returned Plan reports the memory footprint
// under static (CNTK-style shared) or dynamic allocation, the per-class
// breakdown, and the modeled execution time.
package core

import (
	"errors"
	"fmt"

	"gist/internal/costmodel"
	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/liveness"
	"gist/internal/memplan"
)

// AllocationMode selects the allocator the footprint is reported under.
type AllocationMode int

const (
	// StaticAllocation is CNTK-style ahead-of-time allocation with memory
	// sharing — the paper's default.
	StaticAllocation AllocationMode = iota
	// DynamicAllocation models perfectly timed allocate/free (Section
	// V-H).
	DynamicAllocation
)

// String names the allocation mode.
func (m AllocationMode) String() string {
	if m == StaticAllocation {
		return "static"
	}
	return "dynamic"
}

// Typed planning errors, so callers can branch on the failure class
// instead of string-matching (and so nothing in the planning path panics
// on malformed input).
var (
	// ErrNilGraph reports a Build request without a graph.
	ErrNilGraph = errors.New("core: nil graph")
	// ErrInvalidGraph wraps a graph that failed validation.
	ErrInvalidGraph = errors.New("core: invalid graph")
	// ErrInvalidPlan reports a static plan that violated lifetime
	// disjointness — an internal invariant failure, never expected.
	ErrInvalidPlan = errors.New("core: static plan violated lifetime disjointness")
)

// Request describes one planning run.
type Request struct {
	Graph *graph.Graph
	// Encodings selects the Gist configuration; the zero Config is the
	// baseline (no encodings, no inplace).
	Encodings encoding.Config
	// Allocation selects static or dynamic footprint accounting.
	Allocation AllocationMode
	// InvestigationBaseline excludes stashed feature maps from memory
	// sharing, isolating per-encoding effects (Section V-A).
	InvestigationBaseline bool
	// ElideDecoded removes decoded FP32 staging buffers — the paper's
	// optimized-software scenario.
	ElideDecoded bool
	// IncludeWeights and IncludeWorkspace extend the accounting to the
	// full Figure 1 breakdown; the paper's baselines exclude them.
	IncludeWeights   bool
	IncludeWorkspace bool
}

// Plan is the Schedule Builder's output.
type Plan struct {
	Request  Request
	Analysis *encoding.Analysis
	Buffers  []*liveness.Buffer
	// Static is the shared-memory plan (always computed for reference).
	Static *memplan.Plan
	// DynamicPeak is the dynamic-allocation footprint.
	DynamicPeak int64
	// TotalBytes is the footprint under the requested allocation mode.
	TotalBytes int64
	// RawByClass sums buffer bytes per class before sharing (the Figure
	// 1/3/10-style breakdown).
	RawByClass map[graph.BufferClass]int64
}

// Build runs the Schedule Builder on a request.
func Build(req Request) (*Plan, error) {
	if req.Graph == nil {
		return nil, ErrNilGraph
	}
	if err := req.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidGraph, err)
	}
	tl := graph.BuildTimeline(req.Graph)

	var analysis *encoding.Analysis
	cfg := req.Encodings
	if cfg.Binarize || cfg.SSDC || cfg.DPR != 0 || cfg.Inplace {
		analysis = encoding.Analyze(req.Graph, cfg)
	}
	bufs := liveness.Analyze(req.Graph, tl, liveness.Options{
		Analysis:         analysis,
		IncludeWeights:   req.IncludeWeights,
		IncludeWorkspace: req.IncludeWorkspace,
		ElideDecoded:     req.ElideDecoded,
		PaperStaging:     true,
		NoShareStashed:   req.InvestigationBaseline,
	})
	static := memplan.PlanStatic(bufs)
	if _, _, ok := static.Validate(); !ok {
		return nil, ErrInvalidPlan
	}
	dyn := memplan.PlanDynamic(bufs)
	p := &Plan{
		Request:     req,
		Analysis:    analysis,
		Buffers:     bufs,
		Static:      static,
		DynamicPeak: dyn,
		RawByClass:  liveness.TotalByClass(bufs),
	}
	if req.Allocation == DynamicAllocation {
		p.TotalBytes = dyn
	} else {
		p.TotalBytes = static.TotalBytes
	}
	return p, nil
}

// MustBuild is Build for static configurations known to be valid.
func MustBuild(req Request) *Plan {
	p, err := Build(req)
	if err != nil {
		panic(err)
	}
	return p
}

// MFR returns this plan's Memory Footprint Ratio against a baseline plan.
func (p *Plan) MFR(baseline *Plan) float64 {
	return memplan.MFR(baseline.TotalBytes, p.TotalBytes)
}

// StepTime returns the modeled minibatch time of the plan's graph on the
// device, including encode/decode overhead when encodings are active.
func (p *Plan) StepTime(d costmodel.Device) float64 {
	if p.Analysis == nil {
		return d.StepTime(p.Request.Graph)
	}
	return d.GistStepTime(p.Request.Graph, p.Analysis)
}

// FitsDevice reports whether the planned footprint (plus the graph's
// weights, gradients and workspace when not already included) fits in the
// device memory.
func (p *Plan) FitsDevice(d costmodel.Device) bool {
	total := p.TotalBytes
	if !p.Request.IncludeWeights {
		total += 2 * p.Request.Graph.WeightBytes()
	}
	return total <= d.MemoryBytes
}

// LargestFittingMinibatch searches for the biggest minibatch whose plan
// fits the device — the quantity behind the paper's Figure 16 study. build
// constructs the graph for a minibatch size; cfg is the encoding
// configuration under test.
func LargestFittingMinibatch(d costmodel.Device, build func(mb int) *graph.Graph, cfg encoding.Config, maxMB int) int {
	fits := func(mb int) bool {
		p := MustBuild(Request{Graph: build(mb), Encodings: cfg})
		return p.FitsDevice(d)
	}
	if !fits(1) {
		return 0
	}
	lo, hi := 1, 1
	for hi < maxMB && fits(hi*2) {
		hi *= 2
	}
	if hi >= maxMB {
		return maxMB
	}
	// Binary search in (hi, 2*hi): lo fits, 2*hi does not.
	lo = hi
	hi = hi * 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TechniqueSummary is one row of the paper's Table I.
type TechniqueSummary struct {
	Target    string
	Technique string
	Kind      string
}

// TableI returns the paper's technique summary.
func TableI() []TechniqueSummary {
	return []TechniqueSummary{
		{"ReLU-Pool feature map", "Binarize", "Lossless"},
		{"ReLU-Conv feature map", "Sparse Storage and Dense Compute", "Lossless"},
		{"Other feature map", "Delayed Precision Reduction", "Lossy"},
		{"Immediately consumed", "Inplace computation", "Lossless"},
	}
}
