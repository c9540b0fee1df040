package train

import (
	"math"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/tensor"
)

// TestStateFlatsLayout pins the trainable state's layout: every parameter,
// gradient and momentum tensor is a view of its flat at the running offset
// in graph-node order, then parameter order, and exportGrads writes the
// node-order concatenation of the gradient tensors.
func TestStateFlatsLayout(t *testing.T) {
	nets := map[string]*graph.Graph{
		"tinyvgg":  networks.TinyVGG(2, 4),
		"resnet20": networks.ResNetCIFAR(2, 20),
	}
	for name, g := range nets {
		t.Run(name, func(t *testing.T) {
			e := NewExecutor(g, Options{Seed: 1})
			in := g.InputNodes()[0].OutShape
			x, labels := NewDataset(4, in[1], in[2], 0.4, 2).Batch(in[0])
			e.Forward(x, labels, true)
			if err := e.Backward(); err != nil {
				t.Fatal(err)
			}
			for _, st := range []struct {
				name string
				flat []float32
				ts   [][]*tensor.Tensor
			}{{"params", e.paramFlat, e.params}, {"grads", e.gradFlat, e.grads}, {"moms", e.momFlat, e.moms}} {
				off := 0
				for _, n := range g.Nodes {
					for j, tt := range st.ts[n.ID] {
						k := n.ParamShapes[j].NumElements()
						if len(tt.Data) != k || cap(tt.Data) != k || &tt.Data[0] != &st.flat[off] {
							t.Fatalf("%s: %s tensor %d is not the flat's [%d:%d] view", st.name, n.Name, j, off, off+k)
						}
						off += k
					}
				}
				if off != len(st.flat) {
					t.Fatalf("%s: views cover %d of the flat's %d elements", st.name, off, len(st.flat))
				}
			}

			var want []float32
			for _, n := range g.Nodes {
				for _, gr := range e.grads[n.ID] {
					want = append(want, gr.Data...)
				}
			}
			nonzero := false
			got := make([]float32, len(e.gradFlat))
			e.exportGrads(got)
			for k := range want {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("exportGrads[%d] = %g, want %g", k, got[k], want[k])
				}
				nonzero = nonzero || want[k] != 0
			}
			if !nonzero {
				t.Fatal("backward left every gradient zero: the export check saw nothing")
			}
		})
	}
}

// TestReplicaStepTakesNoPooledBuffer checks that a pooled replica group's
// step moves the pool only through its executors' arenas: the shard
// gradient flats are the group's own, so no step takes from or returns to
// the pool's free lists.
func TestReplicaStepTakesNoPooledBuffer(t *testing.T) {
	pool := bufpool.New()
	rg := NewReplicaGroup(networks.TinyCNN(2, 4), Options{Seed: 1, Pool: pool}, ReplicaConfig{Replicas: 2})
	defer rg.Close()
	freeLists := func() bufpool.Stats {
		st := pool.Stats()
		for _, e := range rg.Executors() {
			a := e.ArenaStats()
			st.Hits -= a.Hits
			st.Misses -= a.Misses
			st.Recycles -= a.Recycles
			st.HeldBytes -= a.HeldBytes
			st.InUseBytes -= a.InUseBytes
			st.LiveBytes -= a.LiveBytes
		}
		// A sum of the arenas' peaks only bounds the peak of their sum.
		st.PeakLiveBytes = 0
		return st
	}
	before := freeLists()
	d := NewDataset(4, 3, 16, 0.4, 2)
	for i := 0; i < 3; i++ {
		x, labels := d.Batch(rg.Batch())
		if _, _, err := rg.TryStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
		if got := freeLists(); got != before {
			t.Fatalf("step %d moved the pool's free lists: %+v, want %+v", i+1, got, before)
		}
	}
	if st := rg.Executor().ArenaStats(); st.Hits == 0 {
		t.Fatalf("the lead executor never served a view from its arena: %+v", st)
	}
}
