// Package experiments regenerates every table and figure in the paper's
// evaluation section (Section V) on this repository's substrates: the
// memory figures from the Schedule Builder's static analysis at the paper's
// full ImageNet shapes and minibatch 64, the performance figures from the
// Titan X cost model and PCIe swap simulations, and the training figures
// from real scaled-down runs on the CPU executor.
//
// Each experiment returns a Result holding formatted rows (what the
// cmd/gistbench CLI prints) plus a flat map of named values that the test
// suite and EXPERIMENTS.md assertions consume.
package experiments

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/telemetry"
)

// DefaultMinibatch is the minibatch size the paper's memory figures use.
const DefaultMinibatch = 64

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Lines []string
	// Values holds the figure's key series, named "<network>/<metric>".
	Values map[string]float64
}

// add appends a formatted line.
func (r *Result) add(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// set records a named value.
func (r *Result) set(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// String renders the result as a titled text block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedValueKeys returns the value names in stable order.
func (r *Result) SortedValueKeys() []string {
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PaperDPRFormat returns the smallest DPR format the paper found accuracy-
// safe for each network (Figure 12): FP8 for AlexNet and Overfeat, FP10
// for Inception (FP8 stops training), FP16 for VGG16 (nothing smaller
// trains). NiN and ResNet are not in the paper's Figure 12; FP10 is the
// conservative middle the harness uses for them.
func PaperDPRFormat(network string) floatenc.Format {
	switch network {
	case "AlexNet", "Overfeat":
		return floatenc.FP8
	case "Inception":
		return floatenc.FP10
	case "VGG16":
		return floatenc.FP16
	default:
		return floatenc.FP10
	}
}

// suite builds every network in the paper's suite at the given minibatch.
func suite(mb int) []struct {
	Name string
	G    *graph.Graph
} {
	var out []struct {
		Name string
		G    *graph.Graph
	}
	for _, spec := range networks.Suite() {
		out = append(out, struct {
			Name string
			G    *graph.Graph
		}{spec.Name, spec.Build(mb)})
	}
	return out
}

// gb formats bytes as decimal gigabytes.
func gb(b int64) float64 { return float64(b) / 1e9 }

// losslessCfg is the paper's literal lossless configuration, Binarize +
// SSDC + inplace, which the planner figures price. The runtime's
// encoding.Lossless holds ZVC where this plans SSDC.
func losslessCfg() encoding.Config {
	return encoding.Config{Binarize: true, SSDC: true, DPR: floatenc.FP32, Inplace: true}
}

// lossyCfg is lossless plus the paper's per-network DPR format.
func lossyCfg(network string) encoding.Config {
	c := losslessCfg()
	c.DPR = PaperDPRFormat(network)
	return c
}

// withTechnique narrows cfg to a technique name (see
// encoding.Config.WithTechniqueName); Lookup has validated it.
func withTechnique(cfg encoding.Config, name string) encoding.Config {
	cfg, _ = cfg.WithTechniqueName(name)
	return cfg
}

// Settings carries one command line's run-wide choices to the runners
// Lookup returns. Each runner writes the fields its experiment reads into
// that experiment's scale, and no other experiment sees them; the zero
// value runs every experiment at its default scale.
type Settings struct {
	// Technique narrows robust's and spill's stash encoding to one codec
	// technique, or "adaptive" for ZVC with the dense DPR fallback.
	Technique string
	// Replicas/Shards run fig12 and fig14 on the data-parallel replica
	// engine; at a fixed shard count results are byte-identical at every
	// replica count.
	Replicas, Shards int
	// StashBudget caps fig12's, fig14's and robust's in-RAM stash bytes,
	// spilling the excess to pages under SpillDir (spill's pages go there
	// too). Results are bit-identical at every budget.
	StashBudget int64
	SpillDir    string
	// Steps, Minibatch and Seed, when nonzero, replace fig12's, fig14's
	// and robust's defaults; ProbeEvery replaces fig14's.
	Steps, Minibatch, ProbeEvery int
	Seed                         uint64
	// Faults is robust's whole fault mix, used in place of the default mix
	// whenever it is nonzero (so a partial mix zeroes the other rates).
	// MaxRetries and CheckpointPath, when nonzero, replace robust's retry
	// budget and checkpoint path; Tel instruments robust.
	Faults         faults.Config
	MaxRetries     int
	CheckpointPath string
	Tel            *telemetry.Sink
}

// size writes the nonzero scale settings over a scale's defaults.
func (s Settings) size(steps, mb *int, seed *uint64) {
	*steps, *mb, *seed = cmp.Or(s.Steps, *steps), cmp.Or(s.Minibatch, *mb), cmp.Or(s.Seed, *seed)
}

// table lists every experiment in presentation order, the paper's figures
// first, then the extension studies, each ID beside its runner.
var table = []struct {
	id  string
	run func(Settings) *Result
}{
	{"fig1", func(Settings) *Result { return Fig1(DefaultMinibatch) }},
	{"fig3", func(Settings) *Result { return Fig3(DefaultMinibatch) }},
	{"table1", func(Settings) *Result { return Table1() }},
	{"fig8", func(Settings) *Result { return Fig8(DefaultMinibatch) }},
	{"fig9", func(Settings) *Result { return Fig9(DefaultMinibatch) }},
	{"fig10", func(Settings) *Result { return Fig10(DefaultMinibatch) }},
	{"fig11", func(Settings) *Result { return Fig11(DefaultMinibatch) }},
	{"fig12", func(s Settings) *Result {
		sc := DefaultTrainScale()
		s.size(&sc.Steps, &sc.Minibatch, &sc.Seed)
		sc.Replicas, sc.Shards, sc.StashBudget, sc.SpillDir = s.Replicas, s.Shards, s.StashBudget, s.SpillDir
		return Fig12(sc)
	}},
	{"fig13", func(Settings) *Result { return Fig13(DefaultMinibatch) }},
	{"fig14", func(s Settings) *Result {
		sc := DefaultSparsityScale()
		s.size(&sc.Steps, &sc.Minibatch, &sc.Seed)
		sc.ProbeEvery = cmp.Or(s.ProbeEvery, sc.ProbeEvery)
		sc.Replicas, sc.Shards, sc.StashBudget, sc.SpillDir = s.Replicas, s.Shards, s.StashBudget, s.SpillDir
		return Fig14(sc)
	}},
	{"fig15", func(Settings) *Result { return Fig15(DefaultMinibatch) }},
	{"fig16", func(Settings) *Result { return Fig16() }},
	{"fig17", func(Settings) *Result { return Fig17(DefaultMinibatch) }},
	{"cdma", func(Settings) *Result { return ExtCDMA(DefaultMinibatch) }},
	{"mbsweep", func(Settings) *Result { return ExtMinibatchSweep() }},
	{"sparsitysweep", func(Settings) *Result { return ExtSparsitySweep() }},
	{"ratio", func(s Settings) *Result {
		return ExtRatio(DefaultRatioScale())
	}},
	// Real training at shrinking stash budgets, so it runs at training
	// scale like fig12/fig14.
	{"spill", func(s Settings) *Result {
		sc := DefaultSpillScale()
		sc.Technique, sc.SpillDir = s.Technique, s.SpillDir
		return ExtSpill(sc)
	}},
	{"realized", func(Settings) *Result { return ExtRealized() }},
	// Real replica training, so it runs at training scale (shard batch
	// mb/4), not the planning suite's 64-row minibatch.
	{"distributed", func(Settings) *Result { return ExtDistributed(8, 4) }},
	{"robust", func(s Settings) *Result {
		sc := DefaultRobustScale()
		s.size(&sc.Steps, &sc.Minibatch, &sc.Seed)
		if s.Faults != (faults.Config{}) {
			sc.Faults = s.Faults
		}
		sc.MaxRetries = cmp.Or(s.MaxRetries, sc.MaxRetries)
		sc.CheckpointPath, sc.Technique, sc.StashBudget, sc.SpillDir, sc.Tel =
			s.CheckpointPath, s.Technique, s.StashBudget, s.SpillDir, s.Tel
		return Robust(sc)
	}},
	{"summary", func(Settings) *Result { return Summary() }},
}

// Lookup returns the runner for an ID (any case) under the given settings,
// or an error for an unknown ID or technique name.
func Lookup(id string, s Settings) (func() *Result, error) {
	if _, err := (encoding.Config{}).WithTechniqueName(s.Technique); err != nil {
		return nil, err
	}
	for _, e := range table {
		if e.id == strings.ToLower(id) {
			return func() *Result { return e.run(s) }, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", id, strings.Join(IDs(), "|"))
}

// IDs lists every experiment in presentation order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}
