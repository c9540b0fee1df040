// Command benchmark is the repo's end-to-end and per-layer benchmark: five
// seeded workloads, measured from outside the program by timing calls into
// its exported functions. See README.md for the metrics, the workloads and
// how to read the output; BENCHMARK.json at the repo root is the contract
// the driver runs it under.
//
//	bash benchmark/run.sh                       # every workload, untraced then traced; writes benchmark/out/result.json
//	bash benchmark/run.sh --workload vgg_gist --seed 3 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	scale   int // 1, or 20 under -quick
	outDir  string
}

// check is one output check of a run; any failed check makes the run
// incorrect and the exit code non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Repeat    int                    `json:"repeat"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	// Info is ungated: sample counts, p50 and tail percentiles beside every
	// _p10 metric, epoch counts, hashes.
	Info   map[string]any `json:"info"`
	Checks []check        `json:"checks"`
	WallS  float64        `json:"wall_s"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Schema  int         `json:"schema"`
	Go      string      `json:"go"`
	NumCPU  int         `json:"num_cpu"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Quick   bool        `json:"quick"`
	Runs    []runResult `json:"runs"`
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// seal sets Correct from the checks and the failure count.
func (r *runResult) seal() {
	r.Correct = r.Failed == 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(name string, trace bool, opt options) (runResult, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return runResult{}, err
	}
	workDir, err := os.MkdirTemp(opt.outDir, "work-")
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(workDir)
	start := time.Now()
	res := runResult{Workload: name, Seed: opt.seed, Trace: trace, Info: map[string]any{}}
	switch spec := findTrainSpec(name); {
	case spec != nil:
		err = runTrain(spec, trace, opt, workDir, &res)
	case name == serveName:
		err = runServe(trace, opt, workDir, &res)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	res.WallS = time.Since(start).Seconds()
	res.seal()
	return res, err
}

func printRun(r runResult) {
	fmt.Printf("== %s seed=%d trace=%v correct=%v attempted=%d failed=%d wall=%.1fs\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed, r.WallS)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(r.Info[k])
		fmt.Printf("  info %-35s %s\n", k, b)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Printf("  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (default: all five)")
		seed     = flag.Uint64("seed", 1, "drives weight init, the dataset and the job mix")
		seconds  = flag.Float64("seconds", 10, "how long one run measures: epochs repeat until this much time is spent")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		quick    = flag.Bool("quick", false, "1/20 scale, one epoch per run: a smoke test of the harness, not a measurement")
		repeat   = flag.Int("repeat", 1, "rerun the untraced section this many times, alternating across workloads")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir   = flag.String("out", "benchmark/out", "where traces, scratch files and result.json go")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	opt := options{seed: *seed, seconds: *seconds, scale: 1, outDir: *outDir}
	if *quick {
		opt.scale, opt.seconds = 20, 0
	}

	if *workload != "" {
		res, err := runWorkload(*workload, *trace != 0, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printRun(res)
		// The driver reads the last line of standard output.
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]measurement `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	file := resultFile{Schema: 1, Go: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: opt.seed, Seconds: opt.seconds, Quick: *quick}
	ok := true
	run := func(name string, trace bool, rep int) {
		res, err := runWorkload(name, trace, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.Repeat = rep
		printRun(res)
		ok = ok && res.Correct
		file.Runs = append(file.Runs, res)
	}
	for rep := 0; rep < max(*repeat, 1); rep++ {
		for _, name := range workloadNames() {
			run(name, false, rep)
		}
	}
	for _, name := range workloadNames() {
		run(name, true, 0)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(opt.outDir, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", filepath.Join(opt.outDir, "result.json"))
	if !ok {
		os.Exit(1)
	}
}
