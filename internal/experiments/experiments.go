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
	"fmt"
	"sort"
	"strings"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
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

// losslessCfg is the paper's lossless configuration.
func losslessCfg() encoding.Config { return encoding.Lossless() }

// lossyCfg is lossless plus the paper's per-network DPR format.
func lossyCfg(network string) encoding.Config {
	return encoding.LossyLossless(PaperDPRFormat(network))
}

// Lookup returns the experiment runner for an ID, or nil. Training
// experiments (fig12, fig14) accept a scale argument via their own
// functions and run at default scale here.
func Lookup(id string) func() *Result {
	switch strings.ToLower(id) {
	case "fig1":
		return func() *Result { return Fig1(DefaultMinibatch) }
	case "fig3":
		return func() *Result { return Fig3(DefaultMinibatch) }
	case "table1":
		return Table1
	case "fig8":
		return func() *Result { return Fig8(DefaultMinibatch) }
	case "fig9":
		return func() *Result { return Fig9(DefaultMinibatch) }
	case "fig10":
		return func() *Result { return Fig10(DefaultMinibatch) }
	case "fig11":
		return func() *Result { return Fig11(DefaultMinibatch) }
	case "fig12":
		return func() *Result { return Fig12(DefaultTrainScale()) }
	case "fig13":
		return func() *Result { return Fig13(DefaultMinibatch) }
	case "fig14":
		return func() *Result { return Fig14(DefaultSparsityScale()) }
	case "fig15":
		return func() *Result { return Fig15(DefaultMinibatch) }
	case "fig16":
		return Fig16
	case "fig17":
		return func() *Result { return Fig17(DefaultMinibatch) }
	case "recompute":
		return func() *Result { return ExtRecompute(DefaultMinibatch) }
	case "workspace":
		return func() *Result { return ExtWorkspace(DefaultMinibatch) }
	case "cdma":
		return func() *Result { return ExtCDMA(DefaultMinibatch) }
	case "energy":
		return func() *Result { return ExtEnergy(DefaultMinibatch) }
	case "mbsweep":
		return ExtMinibatchSweep
	case "sparsitysweep":
		return ExtSparsitySweep
	case "algoselect":
		return func() *Result { return ExtAlgoSelect(DefaultMinibatch) }
	case "ratio":
		return func() *Result { return ExtRatio(DefaultRatioScale()) }
	case "spill":
		// Real training at shrinking stash budgets, so it runs at training
		// scale like fig12/fig14.
		return func() *Result { return ExtSpill(DefaultSpillScale()) }
	case "realized":
		return ExtRealized
	case "distributed":
		// Real replica training, so it runs at training scale (shard batch
		// mb/4), not the planning suite's 64-row minibatch.
		return func() *Result { return ExtDistributed(8, 4) }
	case "summary":
		return Summary
	}
	return nil
}

// IDs lists every experiment in presentation order: the paper's figures
// first, then the extension studies.
func IDs() []string {
	return []string{"fig1", "fig3", "table1", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"recompute", "workspace", "cdma", "energy", "mbsweep",
		"sparsitysweep", "algoselect", "ratio", "spill", "realized", "distributed", "summary"}
}
