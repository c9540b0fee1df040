package experiments

// ExtDistributed exercises the real data-parallel engine: the same
// minibatch stream trained at several replica counts over a fixed
// micro-shard decomposition must produce byte-identical weights, because
// the deterministic tree all-reduce makes the merged gradient a pure
// function of the data. This replaces the earlier cost-model simulation
// with measured runs: the paper's distributed argument — Gist's encodings
// stay on-device, so scaling out adds no stash traffic to the gradient
// exchange — only holds if scaling out is semantically free, which is
// exactly what the bit-identity check certifies.

import (
	"math"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/train"
)

// distNet is one network of the distributed determinism suite.
type distNet struct {
	name    string
	build   func(mb, classes int) *graph.Graph
	size    int // input height/width for the dataset
	encoded bool
}

// ExtDistributed trains each suite network for a short run at replica
// counts {1, 2, workers} over a fixed 4-shard decomposition (shard batch =
// mb/4) and reports the final loss plus whether every replica count
// reached bit-identical weights. TinyCNN also runs with the FP16
// encode/decode pipeline in the loop, tying the reduce to the stash
// machinery.
func ExtDistributed(mb, workers int) *Result {
	const shards, classes, steps = 4, 4, 12
	shardBatch := mb / shards
	if shardBatch < 1 {
		shardBatch = 1
	}
	replicaCounts := []int{1, 2, workers}

	r := &Result{ID: "distributed",
		Title: "Data-parallel replicas: deterministic gradient all-reduce (measured runs)"}
	r.add("(%d steps, %d shards of batch %d, replica counts %v)",
		steps, shards, shardBatch, replicaCounts)
	r.add("%-14s %12s %12s", "network", "final loss", "bit-equal?")

	nets := []distNet{
		{"TinyCNN", networks.TinyCNN, 16, false},
		{"TinyCNN-enc", networks.TinyCNN, 16, true},
		{"TinyVGG", networks.TinyVGG, 32, false},
	}
	for _, net := range nets {
		var ref []float32
		var loss float64
		identical := true
		for i, replicas := range replicaCounts {
			params, l := trainDistributed(net, shardBatch, shards, replicas, classes, steps)
			if i == 0 {
				ref, loss = params, l
				continue
			}
			for k := range ref {
				if math.Float32bits(params[k]) != math.Float32bits(ref[k]) {
					identical = false
					break
				}
			}
		}
		det := 0.0
		yes := "NO"
		if identical {
			det, yes = 1, "yes"
		}
		r.set(net.name+"/deterministic", det)
		r.set(net.name+"/final-loss", loss)
		r.add("%-14s %12.4f %12s", net.name, loss, yes)
	}
	r.add("(the tree reduce fixes the gradient summation order per shard, so")
	r.add(" replica count and worker count cannot change a single weight bit)")
	return r
}

// trainDistributed runs one short replica-group training and returns
// replica 0's flattened parameters and the final step loss.
func trainDistributed(net distNet, shardBatch, shards, replicas, classes, steps int) ([]float32, float64) {
	g := net.build(shardBatch, classes)
	opts := train.Options{Seed: 42, Pool: trainingPool}
	if net.encoded {
		opts.Encodings = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	}
	rg := train.NewReplicaGroup(g, opts, train.ReplicaConfig{Replicas: replicas, Shards: shards})
	defer rg.Close()

	d := train.NewDataset(classes, 3, net.size, 0.3, 7)
	var loss float64
	for step := 0; step < steps; step++ {
		x, labels := d.Batch(rg.Batch())
		loss, _ = rg.Step(x, labels, 0.05)
	}
	var params []float32
	e := rg.Executor()
	for _, n := range e.G.Nodes {
		for _, p := range e.Params(n) {
			params = append(params, p.Data...)
		}
	}
	return params, loss
}
