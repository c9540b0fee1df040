// Package gist is a from-scratch reproduction of "Gist: Efficient Data
// Encoding for Deep Neural Network Training" (Jain, Phanishayee, Mars,
// Tang, Pekhimenko — ISCA 2018).
//
// Gist reduces the memory footprint of DNN training by observing that a
// stashed feature map has exactly two uses — one in the forward pass, one
// much later in the backward pass — and holding it in a far smaller
// encoded form across that temporal gap:
//
//   - Binarize: ReLU outputs read only by MaxPool backward passes collapse
//     to a 1-bit mask (32x), with the pool rewritten to use a 4-bit argmax
//     map (8x).
//   - SSDC (Sparse Storage, Dense Compute): highly sparse ReLU outputs
//     feeding convolutions are stored in narrow CSR (1-byte column
//     indices) and decoded to dense FP32 just before the backward use.
//   - DPR (Delayed Precision Reduction): every remaining stash is reduced
//     to FP16/FP10/FP8 after its last forward use, so the forward pass
//     stays exact.
//
// The trainer holds the stashes the paper gives SSDC as ZVC (a nonzero
// bitmask plus compacted values), which narrow CSR beats only above about
// 89 % sparsity; SSDC remains the planner's size model for the paper's
// figures.
//
// This package is the public facade: it re-exports the execution graph,
// layer library, Schedule Builder, encoding configurations, networks and
// device model that live in the internal packages. Typical use:
//
//	g := gist.VGG16(64)
//	base := gist.MustBuild(gist.Request{Graph: g})
//	plan := gist.MustBuild(gist.Request{Graph: g, Encodings: gist.LossyLossless(gist.FP16)})
//	fmt.Printf("MFR %.2fx\n", plan.MFR(base))
package gist

import (
	"gist/internal/core"
	"gist/internal/costmodel"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
)

// Graph building.
type (
	// Graph is a DNN execution graph.
	Graph = graph.Graph
	// Node is one operator instance in a Graph.
	Node = graph.Node
)

// NewGraph returns an empty execution graph.
func NewGraph() *Graph { return graph.New() }

// Planning.
type (
	// Request configures one Schedule Builder run.
	Request = core.Request
	// Plan is the Schedule Builder's output: footprints, breakdowns and
	// the encoding analysis.
	Plan = core.Plan
	// Config selects which Gist encodings apply.
	Config = encoding.Config
	// Format is a reduced-precision floating point format.
	Format = floatenc.Format
	// Device models an accelerator for performance estimates.
	Device = costmodel.Device
	// Technique identifies one Gist encoding (Binarize, SSDC, DPR, ZVC).
	// SSDC is a planning model only: a trainer cannot hold it.
	Technique = encoding.Technique
)

// Encoding techniques, chosen per layer by the planner's fixed order or
// forced globally with WithTechnique.
const (
	// Binarize is the 1-bit ReLU-Pool encoding.
	Binarize = encoding.Binarize
	// SSDC prices sparse stashes as narrow CSR, decoded dense for compute
	// — the paper's size model; the trainer holds them as ZVC.
	SSDC = encoding.SSDC
	// DPR reduces stash precision after the last forward use.
	DPR = encoding.DPR
	// ZVC is zero-value compression: nonzero bitmask + compacted values.
	ZVC = encoding.ZVC
)

// ParseTechnique resolves a runtime technique by name (case-insensitive:
// none, binarize, dpr or zvc), as the consolidated -technique CLI flags do.
func ParseTechnique(s string) (Technique, error) { return encoding.ParseTechnique(s) }

// RegisteredTechniques lists every technique in the codec registry, in
// identifier order.
func RegisteredTechniques() []Technique { return encoding.RegisteredTechniques() }

// Allocation modes.
const (
	// StaticAllocation is CNTK-style ahead-of-time allocation with
	// sharing.
	StaticAllocation = core.StaticAllocation
	// DynamicAllocation models perfectly timed allocate/free.
	DynamicAllocation = core.DynamicAllocation
)

// DPR formats.
const (
	// FP32 disables precision reduction.
	FP32 = floatenc.FP32
	// FP16 is IEEE half precision (1/5/10).
	FP16 = floatenc.FP16
	// FP10 is the paper's 1/5/4 format, three values per word.
	FP10 = floatenc.FP10
	// FP8 is the paper's 1/4/3 format, four values per word.
	FP8 = floatenc.FP8
)

// Build runs the Schedule Builder on a request.
func Build(req Request) (*Plan, error) { return core.Build(req) }

// MustBuild is Build that panics on error.
func MustBuild(req Request) *Plan { return core.MustBuild(req) }

// Lossless returns the lossless configuration: Binarize + ZVC + inplace
// computation — the paper's, with ZVC holding the stashes it gives SSDC.
func Lossless() Config { return encoding.Lossless() }

// LossyLossless returns the full Gist configuration: lossless encodings
// plus DPR at the given format.
func LossyLossless(f Format) Config { return encoding.LossyLossless(f) }

// TitanX returns the paper's evaluation device: a 12 GB Maxwell GTX
// Titan X on PCIe 3.0 x16.
func TitanX() Device { return costmodel.TitanX() }

// LargestFittingMinibatch searches for the biggest minibatch whose plan
// fits the device under the given encoding configuration.
func LargestFittingMinibatch(d Device, build func(mb int) *Graph, cfg Config, maxMB int) int {
	return core.LargestFittingMinibatch(d, build, cfg, maxMB)
}

// The paper's application suite at full ImageNet shapes.
var (
	// AlexNet builds the 8-layer Krizhevsky et al. network.
	AlexNet = networks.AlexNet
	// NiN builds the Network-in-Network ImageNet model.
	NiN = networks.NiN
	// Overfeat builds the Overfeat "fast" model.
	Overfeat = networks.Overfeat
	// VGG16 builds configuration D of Simonyan & Zisserman.
	VGG16 = networks.VGG16
	// Inception builds GoogLeNet (Inception-v1).
	Inception = networks.Inception
	// ResNet50 builds the ImageNet bottleneck residual network.
	ResNet50 = networks.ResNet50
	// ResNetCIFAR builds the CIFAR residual network of depth ~6n+2.
	ResNetCIFAR = networks.ResNetCIFAR
	// TinyCNN builds a small conv net over 16x16 images that trains in
	// seconds — the quickstart and benchmark workload.
	TinyCNN = networks.TinyCNN
	// TinyVGG builds a reduced VGG-shaped network over 32x32 images.
	TinyVGG = networks.TinyVGG
)
