package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark reports. The two tables below
// are the single source of truth: BENCHMARK.json at the repo root lists the
// same names, units, directions and bounds (TestBenchmarkJSONMatchesTables
// keeps them in step), -compare applies the bounds, and every run prints
// every metric of its section, so a metric that does not apply to a
// workload reads 0 there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and on which workloads (the interaction table, written down
	// before measuring).
	Moves string
}

// endToEnd is what a user of the system sees. Every metric is defined on
// every workload and is never 0; README.md gives the per-workload
// definitions.
var endToEnd = []metricDef{
	{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_step", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "live_heap_bytes", Unit: "bytes", Better: "lower", Bound: 0.10},
	{Name: "stash_held_bytes", Unit: "bytes", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesStep      = "step_ms_p50"
	movesStepStash = "step_ms_p50 on stash_ram/stash_spill; small on vgg_gist; none on vgg_dense"
	movesSpill     = "step_ms_p50 on stash_spill only"
	movesServe     = "server.first_step_ms_p10, server.jobs_per_s on serve_mix"
)

// perLayer is what the traced run and the probes report, one block per
// package of the repo.
var perLayer = []metricDef{
	{Name: "train.forward_ms_p10", Unit: "ms", Better: "lower", Moves: movesStep + " on all train workloads"},
	{Name: "train.backward_ms_p10", Unit: "ms", Better: "lower", Moves: movesStep + " on all train workloads; carries encode + decode-wait today"},
	{Name: "train.sgd_ms_p10", Unit: "ms", Better: "lower", Moves: movesStep + " on all train workloads"},
	{Name: "train.encode_ms_mean", Unit: "ms", Better: "lower", Moves: movesStepStash},
	{Name: "train.overlap_hit_ratio", Unit: "ratio", Better: "higher", Moves: "step_ms_p50 on stash_ram/stash_spill"},
	{Name: "train.first_step_ms_p10", Unit: "ms", Better: "lower", Moves: "setup_s (a cold start is its first part)"},
	{Name: "train.new_trainer_ms", Unit: "ms", Better: "lower", Moves: "setup_s; server.first_step_ms_p10 on serve_mix"},
	{Name: "train.checkpoint_save_ms_p10", Unit: "ms", Better: "lower", Moves: "server.jobs_per_s on serve_mix"},

	{Name: "layers.conv_fwd_ms", Unit: "ms", Better: "lower", Moves: movesStep + " on vgg_* (most of the step), less on stash_*"},
	{Name: "layers.conv_bwd_ms", Unit: "ms", Better: "lower", Moves: movesStep + " on vgg_* (most of the step), less on stash_*"},
	{Name: "layers.conv_fwd_mmac_per_s", Unit: "MMAC/s", Better: "higher", Moves: movesStep + " on vgg_*"},
	{Name: "layers.fc_ms", Unit: "ms", Better: "lower", Moves: movesStep + " (small everywhere)"},
	{Name: "layers.relu_pool_ms", Unit: "ms", Better: "lower", Moves: movesStep + " on stash_* (wide maps)"},
	{Name: "layers.share_of_step", Unit: "ratio", Better: "higher", Moves: "the share of the step a layers change can reach"},

	{Name: "encoding.encode_ms", Unit: "ms", Better: "lower", Moves: movesStepStash},
	{Name: "encoding.decode_ms", Unit: "ms", Better: "lower", Moves: movesStepStash},
	{Name: "encoding.encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesStepStash},
	{Name: "encoding.decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesStepStash},
	{Name: "encoding.seal_verify_ms", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on stash_ram/stash_spill (integrity on)"},
	{Name: "encoding.fallback_ratio", Unit: "ratio", Better: "lower", Moves: "stash_held_bytes, step_ms_p50 on stash_*"},
	{Name: "encoding.raw_bytes", Unit: "bytes", Better: "lower", Moves: "stash_held_bytes"},
	{Name: "encoding.held_bytes", Unit: "bytes", Better: "lower", Moves: "stash_held_bytes; live_heap_bytes once encode moves into forward"},
	{Name: "encoding.ratio", Unit: "ratio", Better: "higher", Moves: "stash_held_bytes"},
	{Name: "encoding.marshal_ms", Unit: "ms", Better: "lower", Moves: movesSpill},
	{Name: "encoding.unmarshal_ms", Unit: "ms", Better: "lower", Moves: movesSpill},
	{Name: "encoding.share_of_step", Unit: "ratio", Better: "lower", Moves: "the share of the step a codec/store/pool change can reach"},

	{Name: "bufpool.hit_ratio", Unit: "ratio", Better: "higher", Moves: "allocs_per_step"},
	{Name: "bufpool.gets_per_step", Unit: "count", Better: "lower", Moves: "allocs_per_step, step_ms_p50"},
	{Name: "bufpool.get_recycle_ns", Unit: "ns", Better: "lower", Moves: "step_ms_p50 (small)"},
	{Name: "bufpool.inuse_after_forward_bytes", Unit: "bytes", Better: "lower", Moves: "live_heap_bytes"},
	{Name: "bufpool.held_bytes", Unit: "bytes", Better: "lower", Moves: "live_heap_bytes (free lists are heap)"},

	{Name: "stashstore.put_ms", Unit: "ms", Better: "lower", Moves: movesSpill},
	{Name: "stashstore.fetch_ms", Unit: "ms", Better: "lower", Moves: movesSpill},
	{Name: "stashstore.evictions_per_step", Unit: "count", Better: "lower", Moves: movesSpill},
	{Name: "stashstore.spill_write_bytes_per_step", Unit: "bytes", Better: "lower", Moves: movesSpill},
	{Name: "stashstore.spill_read_bytes_per_step", Unit: "bytes", Better: "lower", Moves: movesSpill},
	{Name: "stashstore.hot_peak_bytes", Unit: "bytes", Better: "lower", Moves: "live_heap_bytes on stash_spill"},
	{Name: "stashstore.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesSpill},

	{Name: "parallel.foreach_calls_per_step", Unit: "count", Better: "lower", Moves: "step_ms_p50 on stash_*; zero on vgg_*"},
	{Name: "parallel.busy_ms_per_step", Unit: "ms", Better: "lower", Moves: "step_ms_p50 on stash_*; zero on vgg_*"},
	{Name: "parallel.saturated_per_step", Unit: "count", Better: "lower", Moves: "step_ms_p50 on stash_*; zero on vgg_*"},

	{Name: "reduce.tree_ms", Unit: "ms", Better: "lower", Moves: "server.jobs_per_s on serve_mix (the shards:2 jobs)"},

	{Name: "core.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s; server.first_step_ms_p10 on serve_mix (admission plans once per ladder rung)"},
	{Name: "memplan.predicted_bytes", Unit: "bytes", Better: "lower", Moves: "the admission reservation on serve_mix"},
	{Name: "memplan.observed_over_predicted", Unit: "ratio", Better: "lower", Moves: "the planner's drift from live_heap_bytes"},

	{Name: "server.first_step_ms_p10", Unit: "ms", Better: "lower", Moves: "what a tenant waits for after POST /jobs on serve_mix"},
	{Name: "server.submit_ms_p10", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "server.stream_open_ms_p10", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: movesServe},
	{Name: "server.list_ms_p10", Unit: "ms", Better: "lower", Moves: "the operator's GET /jobs on serve_mix"},
	{Name: "server.jobs_per_s", Unit: "1/s", Better: "higher", Moves: "the throughput an operator sees; the two clients keep both job slots busy"},
	{Name: "server.admitted", Unit: "count", Better: "higher", Moves: "failed jobs on serve_mix"},
	{Name: "server.degraded", Unit: "count", Better: "lower", Moves: "stash_held_bytes on serve_mix"},
	{Name: "server.queued", Unit: "count", Better: "lower", Moves: "server.first_step_ms_p10 on serve_mix"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: "failed jobs on serve_mix"},
	{Name: "server.sse_dropped", Unit: "count", Better: "lower", Moves: "failed jobs on serve_mix"},
	{Name: "server.peak_reserved_bytes", Unit: "bytes", Better: "lower", Moves: "queueing and degradation on serve_mix"},

	{Name: "promexport.scrape_ms_p10", Unit: "ms", Better: "lower", Moves: "the operator's GET /metrics on serve_mix"},
	{Name: "promexport.scrape_bytes", Unit: "bytes", Better: "lower", Moves: "the operator's GET /metrics on serve_mix"},
	{Name: "promexport.write_ms_p10", Unit: "ms", Better: "lower", Moves: "promexport.scrape_ms_p10"},
	{Name: "promexport.parse_ms_p10", Unit: "ms", Better: "lower", Moves: "the scraper's cost, not the server's"},
	{Name: "promexport.series", Unit: "count", Better: "lower", Moves: "promexport.scrape_bytes"},
	{Name: "promexport.bytes_per_job", Unit: "bytes", Better: "lower", Moves: "promexport.scrape_bytes"},

	{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "the cost of leaving telemetry on; never folded into an end-to-end number"},
	{Name: "telemetry.trace_dropped", Unit: "count", Better: "lower", Moves: "trace completeness"},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns one measurement per definition, reading 0 where vals has no
// entry, so every run prints every metric of its section.
func fill(defs []metricDef, vals map[string]float64) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		out[d.Name] = measurement{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of the
// samples: the smallest value with at least p of the samples at or below
// it. It sorts a copy. The fast decile (p = 0.10) is the benchmark's timing
// estimator: noise on a shared box is additive and bursty, so the fast
// tail repeats where the median does not.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPercentile returns the highest of the usual percentiles that still
// has at least ten samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 950, 990, 999} {
		// Samples beyond the nearest-rank percentile, in whole numbers.
		if beyond := n - (n*perMille+999)/1000; beyond >= 10 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// timingInfo is the ungated companion of a _p10 metric.
type timingInfo struct {
	N     int     `json:"n"`
	P10   float64 `json:"p10"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func describe(samples []float64) timingInfo {
	ti := timingInfo{N: len(samples), P10: percentile(samples, 0.10), P50: percentile(samples, 0.50)}
	if ti.TailP = tailPercentile(len(samples)); ti.TailP > 0 {
		ti.Tail = percentile(samples, ti.TailP)
	}
	return ti
}

// median averages the two middle values of an even count, as Python's
// statistics.median (and so the driver) does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
