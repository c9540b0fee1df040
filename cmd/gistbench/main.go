// Command gistbench regenerates the paper's tables and figures from the
// reproduction's substrates: memory figures from the Schedule Builder's
// static analysis, performance figures from the Titan X cost model and the
// PCIe swap simulations, and the training figures (fig12, fig14, ratio,
// spill, distributed) and the fault-injected robust study from real
// scaled-down training on the CPU executor.
//
// Usage:
//
//	gistbench                                  # run every experiment
//	gistbench -experiment fig8                 # run one experiment
//	gistbench -experiment fig12 -steps 400     # rescale a training run
//	gistbench -experiment fig14 -steps 120 -probe 20
//	gistbench -experiment robust -steps 200 -bitflip 0.05 -ckpt /tmp/gist.ckpt
//	gistbench -list                            # list experiment IDs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gist/internal/debugz"
	"gist/internal/encoding"
	"gist/internal/experiments"
	"gist/internal/parallel"
	"gist/internal/telemetry"
	"gist/internal/telemetry/promexport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams as values; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gistbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var set experiments.Settings
	experiment := fs.String("experiment", "", "experiment ID ("+strings.Join(experiments.IDs(), ", ")+"); empty runs all")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	csvOut := fs.Bool("csv", false, "emit machine-readable CSV instead of tables")
	par := fs.Int("parallel", 0, "encode/decode worker count (0 = GOMAXPROCS, 1 = serial; results are bit-identical at every count)")
	fs.StringVar(&set.Technique, "technique", "", "narrow robust's and spill's stash encoding to one technique (binarize|dpr|zvc), or \"adaptive\" for ZVC with a dense fallback; empty = experiment defaults")
	fs.IntVar(&set.Replicas, "replicas", 0, "run fig12/fig14 on this many data-parallel executor replicas (0/1 = single executor; results are bit-identical at every count for a fixed -shards)")
	fs.IntVar(&set.Shards, "shards", 0, "micro-shards per step for the replica engine (0 = one per replica; pin this when comparing replica counts)")
	fs.Int64Var(&set.StashBudget, "stash-budget", 0, "cap fig12's, fig14's and robust's in-RAM stash bytes, spilling the excess to encoded pages on disk (0 = all in RAM; results are bit-identical at every budget)")
	fs.StringVar(&set.SpillDir, "spill-dir", "", "directory for the stash store's spill file (default: the OS temp dir)")

	// Scale flags: each sets the field of every training scale that has it.
	fs.IntVar(&set.Steps, "steps", 0, "training steps of fig12, fig14 and robust (0 = default scale)")
	fs.IntVar(&set.ProbeEvery, "probe", 0, "probe interval in steps (fig14; 0 = default)")
	fs.IntVar(&set.Minibatch, "mb", 0, "minibatch size of fig12, fig14 and robust (0 = default)")
	fs.Uint64Var(&set.Seed, "seed", 0, "RNG seed of fig12, fig14 and robust (0 = default)")

	// Fault-injection flags (robust): they bind into its fault mix, whose
	// defaults are the flag defaults.
	def := experiments.DefaultRobustScale().Faults
	fs.Float64Var(&set.Faults.BitFlipRate, "bitflip", def.BitFlipRate, "per-stash bit-flip probability (robust)")
	fs.Float64Var(&set.Faults.EncodeFailRate, "encfail", def.EncodeFailRate, "per-stash encode-failure probability (robust)")
	fs.Float64Var(&set.Faults.DecodeFailRate, "decfail", def.DecodeFailRate, "per-stash decode-failure probability (robust)")
	fs.Uint64Var(&set.Faults.Seed, "faultseed", def.Seed, "fault injector seed (robust)")
	fs.Int64Var(&set.Faults.AllocBudgetBytes, "allocbudget", def.AllocBudgetBytes, "per-step stash byte budget before injected alloc failure (robust; 0 = off)")
	fs.IntVar(&set.Faults.AllocFailures, "allocfails", def.AllocFailures, "injected alloc failures before the pressure clears (robust)")
	fs.Int64Var(&set.Faults.CheckpointTruncateAt, "ckpt-truncate", def.CheckpointTruncateAt, "tear checkpoint writes at this byte offset (robust; 0 = off)")
	fs.IntVar(&set.MaxRetries, "retries", 0, "per-step retry budget (robust; 0 = default)")
	fs.StringVar(&set.CheckpointPath, "ckpt", "", "periodic atomic checkpoint path (robust; empty = off)")

	// Telemetry flags. Either output flag arms a sink wired through the
	// worker pool, the codec and robust's executor and fault injector; the
	// default is the zero-overhead nil sink.
	traceOut := fs.String("trace-out", "", "write Chrome trace_event JSON here at exit (load in chrome://tracing or ui.perfetto.dev)")
	metricsOut := fs.String("metrics-out", "", "write the telemetry as Prometheus text exposition here at exit")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if _, err := (encoding.Config{}).WithTechniqueName(set.Technique); err != nil {
		fmt.Fprintln(stderr, "gistbench: -technique:", err)
		fs.Usage()
		return 2
	}
	if *experiment != "" {
		if _, err := experiments.Lookup(*experiment, set); err != nil {
			fmt.Fprintln(stderr, "gistbench: -experiment:", err)
			fs.Usage()
			return 2
		}
	}

	if bound, stopDebug, err := debugz.Serve(*debugAddr); err != nil {
		fmt.Fprintln(stderr, "gistbench: debug listener:", err)
		return 1
	} else if bound != "" {
		defer stopDebug()
		fmt.Fprintf(stderr, "gistbench: pprof on http://%s/debug/pprof/\n", bound)
	}

	// The shared worker pool backs every codec chunk and the executor's
	// decode overlap; results are bit-identical at every worker count.
	parallel.SetSharedWorkers(*par)

	if *traceOut != "" || *metricsOut != "" {
		set.Tel = telemetry.New()
		if *traceOut != "" {
			set.Tel.EnableTracing(0)
		}
		parallel.SetTelemetry(set.Tel)
		encoding.SetDefaultCodec(encoding.Codec{Tel: set.Tel})
	}
	defer func() {
		writeTo := func(path string, write func(w io.Writer) error) {
			f, err := os.Create(path)
			if err == nil {
				err = write(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(stderr, "gistbench:", err)
			}
		}
		if *metricsOut != "" {
			reg := promexport.NewRegistry()
			reg.Register(set.Tel)
			writeTo(*metricsOut, reg.Write)
		}
		if *traceOut != "" {
			writeTo(*traceOut, set.Tel.WriteTrace)
		}
	}()

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	ids := experiments.IDs()
	if *experiment != "" {
		ids = []string{*experiment}
	}
	for _, id := range ids {
		runner, err := experiments.Lookup(id, set)
		if err != nil {
			fmt.Fprintln(stderr, "gistbench:", err)
			return 1
		}
		r := runner()
		if !*csvOut {
			fmt.Fprintln(stdout, r)
		} else if err := r.WriteCSV(stdout); err != nil {
			fmt.Fprintln(stderr, "gistbench:", err)
			return 1
		}
	}
	return 0
}
