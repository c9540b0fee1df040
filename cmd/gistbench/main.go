// Command gistbench regenerates the paper's tables and figures from the
// reproduction's substrates: memory figures from the Schedule Builder's
// static analysis, performance figures from the Titan X cost model and the
// PCIe swap simulations, and (via -experiment fig12/fig14) scaled training
// runs on the CPU executor.
//
// Usage:
//
//	gistbench                     # run every experiment
//	gistbench -experiment fig8    # run one experiment
//	gistbench -list               # list experiment IDs
package main

import (
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

func main() {
	experiment := flag.String("experiment", "", "experiment ID ("+strings.Join(experiments.IDs(), ", ")+"); empty runs all")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	par := flag.Int("parallel", 0, "encode/decode worker count (0 = GOMAXPROCS, 1 = serial)")
	technique := flag.String("technique", "", "narrow the training-based experiments' stash encoding to one technique (binarize|ssdc|dpr|zvc|entropy), or \"adaptive\" for per-layer minimum-bytes selection; empty = experiment defaults")
	replicas := flag.Int("replicas", 0, "run the training-based experiments on this many data-parallel executor replicas (0/1 = single executor)")
	nshards := flag.Int("shards", 0, "micro-shards per step for the replica engine (0 = one per replica; pin this when comparing replica counts)")
	stashBudget := flag.Int64("stash-budget", 0, "cap the training-based experiments' in-RAM stash bytes, spilling the excess to encoded pages on disk (0 = all in RAM; results are bit-identical at every budget)")
	spillDir := flag.String("spill-dir", "", "directory for the stash store's spill file (default: the OS temp dir; only meaningful with -stash-budget)")
	traceOut := flag.String("trace-out", "", "write Chrome trace_event JSON here at exit (codec + worker-pool activity of the training-based experiments)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry as Prometheus text exposition here at exit")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	if bound, stopDebug, err := debugz.Serve(*debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "gistbench: debug listener:", err)
		os.Exit(1)
	} else if bound != "" {
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "gistbench: pprof on http://%s/debug/pprof/\n", bound)
	}

	// Applies to the training-based experiments, whose stash encode/decode
	// runs through the shared worker pool; results are bit-identical at
	// every worker count.
	parallel.SetSharedWorkers(*par)
	experiments.SetTrainingReplicas(*replicas, *nshards)
	experiments.SetTrainingStash(*stashBudget, *spillDir)
	if err := experiments.SetTrainingTechnique(*technique); err != nil {
		fmt.Fprintln(os.Stderr, "gistbench:", err)
		os.Exit(1)
	}

	// Either telemetry flag instruments the process-wide worker pool and
	// codec; the default stays the zero-overhead nil sink.
	var sink *telemetry.Sink
	if *traceOut != "" || *metricsOut != "" {
		sink = telemetry.New()
		if *traceOut != "" {
			sink.EnableTracing(0)
		}
		parallel.SetTelemetry(sink)
		encoding.SetDefaultCodec(encoding.Codec{Tel: sink})
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
				fmt.Fprintln(os.Stderr, "gistbench:", err)
			}
		}
		if *metricsOut != "" {
			reg := promexport.NewRegistry()
			reg.Register(sink)
			writeTo(*metricsOut, reg.Write)
		}
		if *traceOut != "" {
			writeTo(*traceOut, sink.WriteTrace)
		}
	}()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	emit := func(r *experiments.Result) {
		if *csvOut {
			if err := r.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "gistbench:", err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(r)
	}
	if *experiment != "" {
		run := experiments.Lookup(*experiment)
		if run == nil {
			fmt.Fprintf(os.Stderr, "gistbench: unknown experiment %q (try -list)\n", *experiment)
			os.Exit(1)
		}
		emit(run())
		return
	}
	for _, id := range experiments.IDs() {
		emit(experiments.Lookup(id)())
	}
}
