package server

// Admission control: predict a job's peak memory footprint with the
// planner before it runs a single step, and decide admit / queue / reject
// against the server's global budget. The footprint of one executor is
// the planner's shared-buffer total plus two weight-sized arrays
// (parameters + momenta); a replica group multiplies that by the replica
// count and adds the flat shard-gradient buffers the reduce holds.
//
// Degradation walks the encoding ladder none → lossless → fp16 → fp10 →
// fp8: each rung re-plans the job at a higher-compression Gist
// configuration, trading activation precision for footprint, exactly the
// paper's lossless/lossy spectrum. A job that opted in (AllowDegrade) is
// re-planned down the ladder before being queued or rejected.

import (
	"fmt"

	"gist/internal/core"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
)

// ladder is the degradation order: each rung compresses stashes harder
// than the previous one.
var ladder = []string{"none", "lossless", "fp16", "fp10", "fp8"}

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
// narrows it to one codec technique or the adaptive per-layer selection.
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

// footprint predicts the job's peak bytes at the given encoding: the
// planner's shared-activation/stash total plus parameters and momenta,
// scaled by the replica count, plus the shard-gradient flats the
// all-reduce holds simultaneously.
//
// A StashBudget moves the stash population (encoded pages and dense-packed
// plain stashes alike) into the tiered store, whose hot tier is capped at
// the budget: everything past the cap lives on disk, not in RAM. Admission
// therefore subtracts the over-budget stash excess from the prediction,
// floored at the non-spillable residue (weights, momenta and the hot tier
// itself) — a spilling job admits smaller, which is the whole point.
func footprint(spec JobSpec, encName string) (int64, error) {
	cfg, err := jobConfig(spec, encName)
	if err != nil {
		return 0, err
	}
	g, err := buildNet(spec)
	if err != nil {
		return 0, err
	}
	plan, err := core.Build(core.Request{Graph: g, Encodings: cfg})
	if err != nil {
		return 0, err
	}
	per := plan.TotalBytes + 2*g.WeightBytes()
	if spec.StashBudget > 0 {
		perBudget := spec.StashBudget
		if spec.Shards > 1 {
			// The replica group splits the job budget evenly per store.
			perBudget /= int64(spec.Shards)
			if perBudget < 1 {
				perBudget = 1
			}
		}
		spillable := plan.RawByClass[graph.ClassEncoded] + plan.RawByClass[graph.ClassStashedFmap]
		if excess := spillable - perBudget; excess > 0 {
			per -= excess
			if floor := 2*g.WeightBytes() + perBudget; per < floor {
				per = floor
			}
		}
	}
	fp := per * int64(spec.Shards)
	if spec.Shards > 1 {
		// The merge holds every shard's flat gradient at once.
		fp += int64(spec.Shards) * g.WeightBytes()
	}
	return fp, nil
}

// planAdmission finds the least-degraded encoding (starting at startEnc's
// rung) whose footprint fits limit. Without AllowDegrade only startEnc is
// considered. Returns the chosen encoding and its footprint, or ok=false
// with startEnc's footprint when nothing fits.
func planAdmission(spec JobSpec, startEnc string, limit int64) (encName string, fp int64, ok bool, err error) {
	start := ladderIndex(startEnc)
	if start < 0 {
		return "", 0, false, fmt.Errorf("server: unknown encoding %q", startEnc)
	}
	requested, err := footprint(spec, startEnc)
	if err != nil {
		return "", 0, false, err
	}
	if requested <= limit {
		return startEnc, requested, true, nil
	}
	if spec.AllowDegrade {
		for i := start + 1; i < len(ladder); i++ {
			fp, err := footprint(spec, ladder[i])
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
