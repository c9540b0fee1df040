// Command gisttrain runs the paper's training experiments at configurable
// scale: the Figure 12 accuracy comparison (FP32 vs immediate reduction vs
// Gist's delayed precision reduction) and the Figure 14 SSDC sparsity
// study, both on real CPU training of reduced networks over the synthetic
// dataset.
//
// Usage:
//
//	gisttrain -experiment fig12 -steps 400
//	gisttrain -experiment fig14 -steps 120 -probe 20
//	gisttrain -experiment robust -steps 200 -bitflip 0.05 -ckpt /tmp/gist.ckpt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gist/internal/debugz"
	"gist/internal/encoding"
	"gist/internal/experiments"
	"gist/internal/parallel"
	"gist/internal/telemetry"
	"gist/internal/telemetry/promexport"
)

func main() {
	experiment := flag.String("experiment", "fig12", "fig12, fig14 or robust")
	steps := flag.Int("steps", 0, "training steps (0 = default scale)")
	probe := flag.Int("probe", 0, "probe interval in steps (fig14; 0 = default)")
	minibatch := flag.Int("mb", 0, "minibatch size (0 = default)")
	seed := flag.Uint64("seed", 0, "RNG seed (0 = default)")
	par := flag.Int("parallel", 0, "encode/decode worker count (0 = GOMAXPROCS, 1 = serial)")
	replicas := flag.Int("replicas", 0, "data-parallel executor replicas (0/1 = single executor; results are bit-identical at every count for a fixed -shards)")
	nshards := flag.Int("shards", 0, "micro-shards per step for the replica engine (0 = one per replica; pin this when comparing replica counts)")
	technique := flag.String("technique", "", "narrow the training experiments' stash encoding to one technique (binarize|ssdc|dpr|zvc|entropy), or \"adaptive\" for per-layer minimum-bytes selection; empty = experiment defaults")
	stashBudget := flag.Int64("stash-budget", 0, "cap the in-RAM stash bytes, spilling the excess to encoded pages on disk (0 = all in RAM; results are bit-identical at every budget)")
	spillDir := flag.String("spill-dir", "", "directory for the stash store's spill file (default: the OS temp dir; only meaningful with -stash-budget)")

	// Fault-injection flags (robust experiment).
	bitflip := flag.Float64("bitflip", -1, "per-stash bit-flip probability (robust; <0 = default)")
	encfail := flag.Float64("encfail", -1, "per-stash encode-failure probability (robust; <0 = default)")
	decfail := flag.Float64("decfail", -1, "per-stash decode-failure probability (robust; <0 = default)")
	allocBudget := flag.Int64("allocbudget", 0, "per-step stash byte budget before injected alloc failure (robust; 0 = off)")
	allocFails := flag.Int("allocfails", 0, "injected alloc failures before the pressure clears (robust)")
	faultSeed := flag.Uint64("faultseed", 0, "fault injector seed (robust; 0 = default)")
	retries := flag.Int("retries", 0, "per-step retry budget (robust; 0 = default)")
	ckpt := flag.String("ckpt", "", "periodic atomic checkpoint path (robust; empty = off)")
	ckptTruncate := flag.Int64("ckpt-truncate", 0, "tear checkpoint writes at this byte offset (robust; 0 = off)")

	// Telemetry flags. Either output flag arms a sink wired through the
	// whole pipeline (worker pool, codec, and — for robust — the executor
	// and fault injector); the default is the zero-overhead nil sink.
	traceOut := flag.String("trace-out", "", "write Chrome trace_event JSON here at exit (load in chrome://tracing or ui.perfetto.dev)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry as Prometheus text exposition here at exit")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	if bound, stopDebug, err := debugz.Serve(*debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "gisttrain: debug listener:", err)
		os.Exit(1)
	} else if bound != "" {
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "gisttrain: pprof on http://%s/debug/pprof/\n", bound)
	}

	// Encode/decode parallelism is process-wide: the shared worker pool
	// backs every codec chunk and the executor's decode overlap. Output is
	// bit-identical at every worker count.
	parallel.SetSharedWorkers(*par)
	// The replica engine splits each step's minibatch into fixed
	// micro-shards and merges gradients with a deterministic tree reduce,
	// so weights are bit-identical at every -replicas and -parallel value
	// once -shards is pinned.
	experiments.SetTrainingReplicas(*replicas, *nshards)
	experiments.SetTrainingStash(*stashBudget, *spillDir)
	if err := experiments.SetTrainingTechnique(*technique); err != nil {
		fmt.Fprintln(os.Stderr, "gisttrain:", err)
		os.Exit(1)
	}

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
				fmt.Fprintln(os.Stderr, "gisttrain:", err)
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

	switch *experiment {
	case "fig12":
		s := experiments.DefaultTrainScale()
		if *steps > 0 {
			s.Steps = *steps
		}
		if *minibatch > 0 {
			s.Minibatch = *minibatch
		}
		if *seed != 0 {
			s.Seed = *seed
		}
		fmt.Println(experiments.Fig12(s))
	case "fig14":
		s := experiments.DefaultSparsityScale()
		if *steps > 0 {
			s.Steps = *steps
		}
		if *probe > 0 {
			s.ProbeEvery = *probe
		}
		if *minibatch > 0 {
			s.Minibatch = *minibatch
		}
		if *seed != 0 {
			s.Seed = *seed
		}
		fmt.Println(experiments.Fig14(s))
	case "robust":
		s := experiments.DefaultRobustScale()
		if *steps > 0 {
			s.Steps = *steps
		}
		if *minibatch > 0 {
			s.Minibatch = *minibatch
		}
		if *seed != 0 {
			s.Seed = *seed
		}
		if *bitflip >= 0 {
			s.Faults.BitFlipRate = *bitflip
		}
		if *encfail >= 0 {
			s.Faults.EncodeFailRate = *encfail
		}
		if *decfail >= 0 {
			s.Faults.DecodeFailRate = *decfail
		}
		if *allocBudget > 0 {
			s.Faults.AllocBudgetBytes = *allocBudget
		}
		if *allocFails > 0 {
			s.Faults.AllocFailures = *allocFails
		}
		if *faultSeed != 0 {
			s.Faults.Seed = *faultSeed
		}
		if *retries > 0 {
			s.MaxRetries = *retries
		}
		if *ckpt != "" {
			s.CheckpointPath = *ckpt
		}
		if *ckptTruncate > 0 {
			s.Faults.CheckpointTruncateAt = *ckptTruncate
		}
		s.Tel = sink
		fmt.Println(experiments.Robust(s))
	default:
		fmt.Fprintf(os.Stderr, "gisttrain: unknown experiment %q (fig12, fig14 or robust)\n", *experiment)
		os.Exit(1)
	}
}
