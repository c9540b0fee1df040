package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/race"
)

// TestContainerMovesNoBit is ROADMAP item 21's premise (m5) held as a test:
// at a given format, a stash held as dense DPR, as ZVC or as SSDC — or as
// whatever the adaptive argmin picks per map — trains to the same bits.
// {DPR} decodes every stash into an FP32 target; {ZVC} and {SSDC} read
// theirs as stored (Conv and FC decode it an image at a time, the ReLU
// gates by its sign mask), so this is also
// the wall between the two read paths. Binarize is off, so every ReLU→Conv
// map is one of these containers. Weights and every step's loss must hash
// equal across the four sets, for three networks, three formats and two
// seeds.
func TestContainerMovesNoBit(t *testing.T) {
	if race.Enabled {
		t.Skip("72 training runs are too slow under the race detector")
	}
	const classes = 8
	nets := []struct {
		name           string
		g              func() *graph.Graph
		channels, size int
		steps          int
	}{
		{"tinyvgg", func() *graph.Graph { return networks.TinyVGG(2, classes) }, 3, 32, 10},
		{"pointwise", func() *graph.Graph { return pointwiseNet(4, classes) }, 4, 16, 10},
		{"resnet8", func() *graph.Graph { return networks.ResNetCIFAR(2, 8) }, 3, 32, 3},
	}
	sets := []struct {
		name    string
		set     []encoding.Technique
		byImage bool // some stash is read as stored, an image at a time
	}{
		{"dpr", []encoding.Technique{encoding.DPR}, false},
		{"zvc", []encoding.Technique{encoding.ZVC}, true},
		{"ssdc", []encoding.Technique{encoding.SSDC}, true},
		{"all", encoding.AdaptiveAll(), true},
	}
	for _, n := range nets {
		for _, f := range []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP8} {
			for _, seed := range []uint64{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/seed%d", n.name, f, seed), func(t *testing.T) {
					var first [2]uint64
					for i, s := range sets {
						g := n.g()
						a := encoding.Analyze(g, encoding.Config{DPR: f, AdaptiveSet: s.set})
						e := NewExecutor(g, Options{Seed: seed, Encodings: a})
						byImage := false
						for id := range e.futures {
							byImage = byImage || e.futures[id].byImage
						}
						if byImage != s.byImage {
							t.Fatalf("{%s}: a stash read as stored by image %t, want %t", s.name, byImage, s.byImage)
						}
						got := trainHashes(e, g, NewDataset(classes, n.channels, n.size, 0.4, seed+1), n.steps)
						e.Close()
						if i == 0 {
							first = got
						} else if got != first {
							t.Errorf("{%s}: weights %#016x losses %#016x, {%s} %#016x %#016x",
								s.name, got[0], got[1], sets[0].name, first[0], first[1])
						}
					}
				})
			}
		}
	}
}

// trainHashes runs steps training steps and returns the FNV-1a hashes of the
// final weights' bits and of every step's loss bits.
func trainHashes(e *Executor, g *graph.Graph, d *Dataset, steps int) [2]uint64 {
	mb := g.InputNodes()[0].OutShape[0]
	lossHash, weightHash := fnv.New64a(), fnv.New64a()
	for i := 0; i < steps; i++ {
		x, labels := d.Batch(mb)
		loss, _ := e.Step(x, labels, 0.01)
		lossHash.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(loss)))
	}
	for _, node := range g.Nodes {
		for _, p := range e.Params(node) {
			for _, v := range p.Data {
				weightHash.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
			}
		}
	}
	return [2]uint64{weightHash.Sum64(), lossHash.Sum64()}
}
