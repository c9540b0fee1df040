package server

// Admission control: predict a job's peak memory footprint with the
// planner before it runs a single step, and decide admit / queue / reject
// against the server's global budget. The footprint of one executor is
// the planner's shared-buffer total plus two weight-sized arrays
// (parameters + momenta); a replica group multiplies that by the replica
// count and adds the flat shard-gradient buffers the reduce holds — high by
// N-1 weight pairs, as the replicas view the lead's parameters and momenta.
//
// Degradation walks the encoding ladder none → lossless → fp16 → fp10 →
// fp8: each rung re-plans the job at a higher-compression Gist
// configuration, trading activation precision for footprint, exactly the
// paper's lossless/lossy spectrum. A job that opted in (AllowDegrade) is
// re-planned down the ladder before being queued or rejected.
//
// A rung's price is a pure function of the spec, and a plan reads only a
// few of its fields, so the server plans each configuration once: its
// planMemo keys a plan summary by exactly the fields buildNet and jobConfig
// read (network, batch, classes, rung, technique) and keeps the plan's
// total, its spillable stash bytes and the weight bytes. footprintOf is the
// arithmetic that turns a summary, the spec's stash budget and its shard
// count into the price, so a memo hit reserves byte for byte what a fresh
// plan reserves (TestPricesMatchFootprint). Batch and classes are
// client-chosen, so the memo holds at most planMemoCap summaries and is
// cleared when full; a failed plan is never stored.

import (
	"fmt"
	"sync"

	"gist/internal/core"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
)

// ladder is the degradation order: each rung compresses stashes harder
// than the previous one.
var ladder = [...]string{"none", "lossless", "fp16", "fp10", "fp8"}

// ladderIndex returns the rung of an encoding name, or -1.
func ladderIndex(name string) int {
	for i, n := range ladder {
		if n == name {
			return i
		}
	}
	return -1
}

// encodingConfig maps an encoding name to the planner/runtime Config.
// "none" returns the zero Config (baseline, no stash encodings).
func encodingConfig(name string) (encoding.Config, error) {
	switch name {
	case "none":
		return encoding.Config{}, nil
	case "lossless":
		return encoding.Lossless(), nil
	case "fp16":
		return encoding.LossyLossless(floatenc.FP16), nil
	case "fp10":
		return encoding.LossyLossless(floatenc.FP10), nil
	case "fp8":
		return encoding.LossyLossless(floatenc.FP8), nil
	}
	return encoding.Config{}, fmt.Errorf("server: unknown encoding %q (want none|lossless|fp16|fp10|fp8)", name)
}

// jobConfig builds the job's effective encoding configuration: the ladder
// rung supplies the base (DPR format included), then the spec's Technique
// narrows it to one codec technique or to the adaptive tier (ZVC with the
// dense DPR fallback).
func jobConfig(spec JobSpec, encName string) (encoding.Config, error) {
	cfg, err := encodingConfig(encName)
	if err != nil {
		return cfg, err
	}
	if cfg, err = cfg.WithTechniqueName(spec.Technique); err != nil {
		return cfg, fmt.Errorf("server: %v", err)
	}
	return cfg, nil
}

// buildNet constructs the spec's graph at its per-executor batch size.
func buildNet(spec JobSpec) (*graph.Graph, error) {
	switch spec.Network {
	case "tinycnn":
		return networks.TinyCNN(spec.Batch, spec.Classes), nil
	case "tinyvgg":
		return networks.TinyVGG(spec.Batch, spec.Classes), nil
	}
	return nil, fmt.Errorf("server: unknown network %q (want tinycnn|tinyvgg)", spec.Network)
}

// inputGeom returns the dataset geometry (channels, image size) for the
// spec's network.
func inputGeom(spec JobSpec) (channels, size int) {
	if spec.Network == "tinyvgg" {
		return 3, 32
	}
	return 3, 16
}

// planSummary is what admission keeps of one plan: the planner's total,
// its spillable raw stash bytes (encoded and stashed feature maps) and the
// graph's weight bytes.
type planSummary struct {
	total, spillable, weights int64
}

// planOf plans the spec at encoding encName over *g, the spec's graph,
// building it first when *g is nil, so one caller's misses share one graph.
// The rung's configuration is checked before the graph is built, so a spec
// with a bad technique and a bad network reports the technique.
func planOf(spec JobSpec, encName string, g **graph.Graph) (planSummary, error) {
	cfg, err := jobConfig(spec, encName)
	if err != nil {
		return planSummary{}, err
	}
	if *g == nil {
		if *g, err = buildNet(spec); err != nil {
			return planSummary{}, err
		}
	}
	plan, err := core.Build(core.Request{Graph: *g, Encodings: cfg})
	if err != nil {
		return planSummary{}, err
	}
	return planSummary{
		total:     plan.TotalBytes,
		spillable: plan.RawByClass[graph.ClassEncoded] + plan.RawByClass[graph.ClassStashedFmap],
		weights:   (*g).WeightBytes(),
	}, nil
}

// footprintOf predicts the job's peak bytes from its plan summary: the
// planner's shared-activation/stash total plus parameters and momenta,
// scaled by the replica count (an upper bound: a group holds one copy of
// the parameters and momenta, which its replicas view), plus the
// shard-gradient flats the all-reduce holds simultaneously.
//
// A StashBudget moves the stash population (encoded pages and dense-packed
// plain stashes alike) into the tiered store, whose hot tier is capped at
// the budget: everything past the cap lives on disk, not in RAM. Admission
// therefore subtracts the over-budget stash excess from the prediction,
// floored at the non-spillable residue (weights, momenta and the hot tier
// itself) — a spilling job admits smaller, which is the whole point.
func footprintOf(spec JobSpec, sum planSummary) int64 {
	per := sum.total + 2*sum.weights
	if spec.StashBudget > 0 {
		perBudget := spec.StashBudget
		if spec.Shards > 1 {
			// The replica group splits the job budget evenly per store.
			perBudget /= int64(spec.Shards)
			if perBudget < 1 {
				perBudget = 1
			}
		}
		if excess := sum.spillable - perBudget; excess > 0 {
			per -= excess
			if floor := 2*sum.weights + perBudget; per < floor {
				per = floor
			}
		}
	}
	fp := per * int64(spec.Shards)
	if spec.Shards > 1 {
		// The merge holds every shard's flat gradient at once.
		fp += int64(spec.Shards) * sum.weights
	}
	return fp
}

// planMemoCap bounds the memo: a full memo is cleared before the next
// summary goes in.
const planMemoCap = 64

// planKey is exactly what a plan reads of a spec: buildNet's network,
// batch and classes, and jobConfig's rung and technique.
type planKey struct {
	network        string
	batch, classes int
	rung           int
	technique      string
}

// planMemo is the server's memo of plan summaries. Its zero value is empty
// and ready; it is safe for concurrent use, since Submit prices outside the
// server's lock.
type planMemo struct {
	mu sync.Mutex
	m  map[planKey]planSummary
}

// price returns the spec's footprint at ladder[rung]. A hit is one lookup
// and allocates nothing; a miss plans the rung over *g (planOf) and keeps
// the summary, unless planning failed.
func (m *planMemo) price(spec JobSpec, rung int, g **graph.Graph) (int64, error) {
	k := planKey{spec.Network, spec.Batch, spec.Classes, rung, spec.Technique}
	m.mu.Lock()
	sum, ok := m.m[k]
	m.mu.Unlock()
	if !ok {
		var err error
		if sum, err = planOf(spec, ladder[rung], g); err != nil {
			return 0, err
		}
		m.mu.Lock()
		if m.m == nil {
			m.m = make(map[planKey]planSummary)
		} else if len(m.m) >= planMemoCap {
			clear(m.m)
		}
		m.m[k] = sum
		m.mu.Unlock()
	}
	return footprintOf(spec, sum), nil
}

// planAdmission finds the least-degraded encoding (starting at startEnc's
// rung) whose footprint fits limit, pricing rungs through the memo; the
// rungs it misses are planned over one graph. Without AllowDegrade only
// startEnc is considered. Returns the chosen encoding and its footprint, or
// ok=false with startEnc's footprint when nothing fits.
func planAdmission(m *planMemo, spec JobSpec, startEnc string, limit int64) (encName string, fp int64, ok bool, err error) {
	start := ladderIndex(startEnc)
	if start < 0 {
		return "", 0, false, fmt.Errorf("server: unknown encoding %q", startEnc)
	}
	var g *graph.Graph
	requested, err := m.price(spec, start, &g)
	if err != nil {
		return "", 0, false, err
	}
	if requested <= limit {
		return startEnc, requested, true, nil
	}
	if spec.AllowDegrade {
		for i := start + 1; i < len(ladder); i++ {
			fp, err := m.price(spec, i, &g)
			if err != nil {
				return "", 0, false, err
			}
			if fp <= limit {
				return ladder[i], fp, true, nil
			}
		}
	}
	return startEnc, requested, false, nil
}
