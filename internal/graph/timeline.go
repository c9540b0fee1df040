package graph

import (
	"fmt"

	"gist/internal/layers"
)

// Phase distinguishes the two halves of minibatch processing.
type Phase int

// Timeline phases.
const (
	Forward Phase = iota
	Backward
)

// String returns "forward" or "backward".
func (p Phase) String() string {
	if p == Forward {
		return "forward"
	}
	return "backward"
}

// Step is one operator invocation on the computation timeline: the forward
// or backward pass of one node. Steps are numbered 0..2L-1 for an L-node
// graph: forward in topological order, then backward in reverse.
type Step struct {
	T     int
	Phase Phase
	Node  *Node
}

// Timeline is the full minibatch schedule.
type Timeline struct {
	Steps []Step
	// fwdStep[id] and bwdStep[id] give each node's two step indices.
	fwdStep, bwdStep []int
}

// BuildTimeline lays out the forward+backward schedule of the graph.
func BuildTimeline(g *Graph) *Timeline {
	l := len(g.Nodes)
	tl := &Timeline{
		Steps:   make([]Step, 0, 2*l),
		fwdStep: make([]int, l),
		bwdStep: make([]int, l),
	}
	for i, n := range g.Nodes {
		tl.fwdStep[n.ID] = i
		tl.Steps = append(tl.Steps, Step{T: i, Phase: Forward, Node: n})
	}
	for i := l - 1; i >= 0; i-- {
		t := 2*l - 1 - i
		n := g.Nodes[i]
		tl.bwdStep[n.ID] = t
		tl.Steps = append(tl.Steps, Step{T: t, Phase: Backward, Node: n})
	}
	return tl
}

// Len returns the number of steps (2 per node).
func (tl *Timeline) Len() int { return len(tl.Steps) }

// ForwardStep returns the step index of the node's forward pass.
func (tl *Timeline) ForwardStep(n *Node) int { return tl.fwdStep[n.ID] }

// BackwardStep returns the step index of the node's backward pass.
func (tl *Timeline) BackwardStep(n *Node) int { return tl.bwdStep[n.ID] }

// BufferClass is the paper's data-structure taxonomy (Figure 1).
type BufferClass int

// Buffer classes, in the order the paper's breakdown stacks them.
const (
	// ClassStashedFmap is a feature map generated in the forward pass and
	// needed again in the backward pass — the primary Gist target.
	ClassStashedFmap BufferClass = iota
	// ClassImmediateFmap is a feature map consumed entirely within the
	// forward pass.
	ClassImmediateFmap
	// ClassGradientMap is an intermediate backward-pass gradient,
	// immediately consumed.
	ClassGradientMap
	// ClassWeights is learnable parameters.
	ClassWeights
	// ClassWeightGrads is parameter gradients.
	ClassWeightGrads
	// ClassWorkspace is cuDNN-style intra-layer scratch.
	ClassWorkspace
	// ClassEncoded is a Gist encoded representation stashed between the
	// two uses of a feature map.
	ClassEncoded
	// ClassDecoded is the transient FP32 staging buffer a Gist decode
	// writes just before the backward use.
	ClassDecoded
)

var classNames = map[BufferClass]string{
	ClassStashedFmap:   "stashed feature map",
	ClassImmediateFmap: "immediately consumed",
	ClassGradientMap:   "gradient map",
	ClassWeights:       "weights",
	ClassWeightGrads:   "weight gradients",
	ClassWorkspace:     "workspace",
	ClassEncoded:       "encoded stash",
	ClassDecoded:       "decoded staging",
}

// String returns the class name used in reports.
func (c BufferClass) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("BufferClass(%d)", int(c))
}

// OutputStashed reports whether node n's output feature map must be kept
// for the backward pass in the *baseline* (no encodings): true when n's own
// backward needs Y, or any consumer's backward needs its X.
func OutputStashed(n *Node) bool {
	if n.Op.Needs().Y {
		return true
	}
	for _, c := range n.consumers {
		if c.Op.Needs().X {
			return true
		}
	}
	return false
}

// backwardUses returns the timeline steps at which node n's output feature
// map is read during the backward pass.
func backwardUses(tl *Timeline, n *Node) []int {
	var uses []int
	if n.Op.Needs().Y {
		uses = append(uses, tl.BackwardStep(n))
	}
	for _, c := range n.consumers {
		if c.Op.Needs().X {
			uses = append(uses, tl.BackwardStep(c))
		}
	}
	return uses
}

// LastForwardUse returns the last forward-pass step that reads n's output
// (its own forward step if it has no consumers).
func LastForwardUse(tl *Timeline, n *Node) int {
	last := tl.ForwardStep(n)
	for _, c := range n.consumers {
		if s := tl.ForwardStep(c); s > last {
			last = s
		}
	}
	return last
}

// LastBackwardUse returns the last backward step that reads n's output, or
// -1 when the output has no backward use.
func LastBackwardUse(tl *Timeline, n *Node) int {
	uses := backwardUses(tl, n)
	if len(uses) == 0 {
		return -1
	}
	last := uses[0]
	for _, u := range uses[1:] {
		if u > last {
			last = u
		}
	}
	return last
}

// FirstBackwardUse returns the earliest backward step that reads n's
// output, or -1 when there is none. Gist decodes just before this step.
func FirstBackwardUse(tl *Timeline, n *Node) int {
	uses := backwardUses(tl, n)
	if len(uses) == 0 {
		return -1
	}
	first := uses[0]
	for _, u := range uses[1:] {
		if u < first {
			first = u
		}
	}
	return first
}

// GradProducedStep returns the step at which the gradient map w.r.t. n's
// output first exists: the earliest backward step among n's consumers, or
// n's own backward step for sink nodes (the loss seeds its own gradient).
func GradProducedStep(tl *Timeline, n *Node) int {
	if len(n.consumers) == 0 {
		return tl.BackwardStep(n)
	}
	first := tl.BackwardStep(n.consumers[0])
	for _, c := range n.consumers[1:] {
		if s := tl.BackwardStep(c); s < first {
			first = s
		}
	}
	return first
}

// InplaceEligible reports whether node n can compute its output in its
// input's buffer: the op must be elementwise read-once/write-once (ReLU is
// the paper's case), the input must have no other consumer, and the input
// buffer must not itself be stashed for the backward pass (overwriting it
// would corrupt the stash).
func InplaceEligible(n *Node) bool {
	if n.Kind() != layers.ReLU {
		return false
	}
	if len(n.Inputs) != 1 {
		return false
	}
	in := n.Inputs[0]
	if len(in.consumers) != 1 {
		return false
	}
	if in.Kind() == layers.Input {
		return false
	}
	return !OutputStashed(in)
}

// GradInplaceEligible reports whether node n's backward pass can write the
// gradient of its input into the buffer holding the gradient of its output:
// the op must be elementwise read-once/write-once (ReLU), and the input's
// gradient must have no other producer (a single consumer) and a reader
// (not the graph input). The input's output buffer may be stashed: only the
// gradient buffers are shared.
func GradInplaceEligible(n *Node) bool {
	if n.Kind() != layers.ReLU || len(n.Inputs) != 1 {
		return false
	}
	in := n.Inputs[0]
	return len(in.consumers) == 1 && in.Kind() != layers.Input
}
