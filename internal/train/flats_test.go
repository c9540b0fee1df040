package train

import (
	"math"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
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

// TestStateViewsOwnDims checks the views' slab layout: every node's slice
// of parameter, gradient and momentum views is capped at its length, every
// view aliases its flat at the running offset and its dims equal its
// parameter shape, and each view owns its dims —
// writing one view's Shape[0] changes no other view's shape and no graph
// shape. It covers a lead executor and a replica group's replicas, whose
// gradient views are their own.
func TestStateViewsOwnDims(t *testing.T) {
	g := bnNet(2)
	rg := NewReplicaGroup(g, Options{Seed: 1}, ReplicaConfig{Replicas: 2})
	defer rg.Close()
	type view struct {
		t     *tensor.Tensor
		shape tensor.Shape
	}
	var all []view
	for r, e := range append([]*Executor{NewExecutor(networks.TinyVGG(2, 4), Options{Seed: 1})}, rg.Executors()...) {
		for _, st := range []struct {
			flat []float32
			ts   [][]*tensor.Tensor
		}{{e.paramFlat, e.params}, {e.gradFlat, e.grads}, {e.momFlat, e.moms}} {
			ts, off := st.ts, 0
			for _, n := range e.G.Nodes {
				if len(ts[n.ID]) != len(n.ParamShapes) || cap(ts[n.ID]) != len(n.ParamShapes) {
					t.Fatalf("executor %d: %s has %d views of cap %d, want %d of cap %d",
						r, n.Name, len(ts[n.ID]), cap(ts[n.ID]), len(n.ParamShapes), len(n.ParamShapes))
				}
				for j, tt := range ts[n.ID] {
					if !tt.Shape.Equal(n.ParamShapes[j]) {
						t.Fatalf("executor %d: %s view %d has shape %v, want %v", r, n.Name, j, tt.Shape, n.ParamShapes[j])
					}
					k := n.ParamShapes[j].NumElements()
					if len(tt.Data) != k || cap(tt.Data) != k || &tt.Data[0] != &st.flat[off] {
						t.Fatalf("executor %d: %s view %d is not its flat's [%d:%d] view", r, n.Name, j, off, off+k)
					}
					off += k
					all = append(all, view{tt, n.ParamShapes[j]})
				}
			}
		}
	}
	for i, v := range all {
		old := v.t.Shape[0]
		v.t.Shape[0] = -1
		for j, w := range all {
			if j != i && w.t != v.t && !w.t.Shape.Equal(w.shape) {
				t.Fatalf("writing view %d's Shape[0] changed view %d's shape to %v", i, j, w.t.Shape)
			}
		}
		if v.shape[0] == -1 {
			t.Fatalf("writing view %d's Shape[0] wrote its graph shape", i)
		}
		v.t.Shape[0] = old
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

// TestReplicasViewLeadState checks that a replica group trains one model:
// every replica's parameter and momentum tensors are the lead's own views
// (of the lead's flats), its gradients are its own, it carries the lead's
// analysis, and its snapshot copies no flat — only its batch-norm
// statistics and RNG, which stay per replica.
func TestReplicasViewLeadState(t *testing.T) {
	g := bnNet(2)
	rg := NewReplicaGroup(g, Options{Seed: 1, Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))},
		ReplicaConfig{Replicas: 3})
	defer rg.Close()
	x, labels := NewDataset(4, 2, 8, 0.4, 2).Batch(rg.Batch())
	rg.Step(x, labels, 0.05)

	lead := rg.Executor()
	if s := lead.Snapshot(); len(s.params) != len(lead.paramFlat) || len(s.moms) != len(lead.momFlat) {
		t.Fatalf("the lead's snapshot holds %d/%d of its %d parameters/momenta", len(s.params), len(s.moms), len(lead.paramFlat))
	}
	for r, e := range rg.Executors()[1:] {
		if e.opts.Encodings != lead.opts.Encodings {
			t.Fatalf("replica %d carries its own analysis, not the lead's", r+1)
		}
		if &e.gradFlat[0] == &lead.gradFlat[0] {
			t.Fatalf("replica %d accumulates into the lead's gradient flat", r+1)
		}
		for _, n := range g.Nodes {
			for j := range lead.params[n.ID] {
				if &e.params[n.ID][j].Data[0] != &lead.params[n.ID][j].Data[0] ||
					&e.moms[n.ID][j].Data[0] != &lead.moms[n.ID][j].Data[0] {
					t.Fatalf("replica %d: %s parameter %d or its momentum is not a view of the lead's flats", r+1, n.Name, j)
				}
			}
		}
		s := e.Snapshot()
		if len(s.params) != 0 || len(s.moms) != 0 {
			t.Fatalf("replica %d's snapshot copies %d parameters and %d momenta", r+1, len(s.params), len(s.moms))
		}
		for _, n := range g.Nodes {
			if n.Kind() == layers.BatchNorm && len(s.bnMean[n.ID]) == 0 {
				t.Fatalf("replica %d's snapshot lost %s's running statistics", r+1, n.Name)
			}
		}
	}
}
