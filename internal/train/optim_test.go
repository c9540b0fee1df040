package train

import (
	"bytes"
	"errors"
	"testing"

	"gist/internal/graph"
	"gist/internal/layers"
)

// smallNetWide mirrors smallNet's node names with wider shapes, for the
// checkpoint shape-mismatch test.
func smallNetWide(mb int) *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(mb, 2, 8, 8))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 3, 1, 1), in) // 8 channels, not 4
	r1 := g.MustAdd("relu1", layers.NewReLU(), c1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(2, 2, 0), r1)
	fc := g.MustAdd("fc", layers.NewFC(4), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), fc)
	return g
}

func TestEvalModeDeterministic(t *testing.T) {
	// Eval disables dropout: two eval passes on the same data must agree.
	g := smallNet(4)
	e := NewExecutor(g, Options{Seed: 9})
	d := NewDataset(4, 2, 8, 0.3, 10)
	x, labels := d.Batch(4)
	l1, e1 := e.Eval(x, labels)
	l2, e2 := e.Eval(x, labels)
	if l1 != l2 || e1 != e2 {
		t.Fatal("eval must be deterministic")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g1 := smallNet(4)
	e1 := NewExecutor(g1, Options{Seed: 21})
	d := NewDataset(4, 2, 8, 0.3, 22)
	Run(e1, d, RunConfig{Minibatch: 4, Steps: 20, LR: 0.05, ProbeEvery: 10})

	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Load into a freshly initialized executor with different seed.
	g2 := smallNet(4)
	e2 := NewExecutor(g2, Options{Seed: 99})
	if err := e2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, n := range g1.Nodes {
		p1, p2 := e1.Params(n), e2.Params(g2.Lookup(n.Name))
		for j := range p1 {
			if !p1[j].Equal(p2[j]) {
				t.Fatalf("%s param %d not restored", n.Name, j)
			}
		}
	}
	// Restored executor must produce identical eval results.
	x, labels := d.Batch(4)
	l1, _ := e1.Eval(x, labels)
	l2, _ := e2.Eval(x, labels)
	if l1 != l2 {
		t.Fatalf("restored eval loss %v != original %v", l2, l1)
	}
}

func TestCheckpointBadMagic(t *testing.T) {
	e := NewExecutor(smallNet(2), Options{Seed: 1})
	err := e.LoadCheckpoint(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if err == nil {
		t.Fatal("bad magic must error")
	}
	// The retired, unchecksummed v1 stream ("gIST") is a bad magic too.
	err = e.LoadCheckpoint(bytes.NewReader([]byte{0x54, 0x53, 0x49, 0x67, 0, 0, 0, 0}))
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("v1 stream: err = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	e1 := NewExecutor(smallNet(4), Options{Seed: 1})
	var buf bytes.Buffer
	if err := e1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// A different architecture with the same node names but different
	// shapes must refuse the checkpoint.
	other := smallNetWide(4)
	e2 := NewExecutor(other, Options{Seed: 2})
	if err := e2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shape mismatch must error")
	}
}
