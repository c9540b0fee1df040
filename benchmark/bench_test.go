package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	if got := percentile(hundred, 0.10); got != 10 {
		t.Errorf("p10 of 1..100 = %v, want 10", got)
	}
	if got := percentile(hundred, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{5, 3, 9, 4, 8, 7, 6, 2}, 0.10); got != 2 {
		t.Errorf("p10 of 8 samples = %v, want the fastest", got)
	}
	if got := percentile(nil, 0.10); got != 0 {
		t.Errorf("p10 of nothing = %v, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if ti := describe(hundred); ti.N != 100 || ti.TailP != 0.90 || ti.Tail != 90 {
		t.Errorf("describe(1..100) = %+v", ti)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// TestYardstickIsFrozen pins the reference kernel. Every gated timing on
// record is in its units, so what it computes changes only on purpose.
func TestYardstickIsFrozen(t *testing.T) {
	refKernel()
	var sum float64
	for _, v := range refY {
		sum += float64(v)
	}
	const want = 810.8749625384808
	if len(refY) != 2048 || sum != want {
		t.Errorf("refKernel wrote %d values summing to %v, want 2048 summing to %v", len(refY), sum, want)
	}
	if got := readYardstick(); got <= 0 {
		t.Errorf("readYardstick() = %v", got)
	}
	// An operation timed while the CPU ran at half of nominal speed took
	// twice as long as it would have.
	if got := calibrated(10, 2*refNominalMS, 2*refNominalMS); got != 5 {
		t.Errorf("calibrated at half speed = %v, want 5", got)
	}
	if got := calibrated(10, refNominalMS/2, 3*refNominalMS/2); got != 10 {
		t.Errorf("calibrated between two readings averaging nominal = %v, want 10", got)
	}
	if got := speedOf([]float64{10, 10, 10}, []float64{5, 10, 20}); got != 1 {
		t.Errorf("speedOf = %v, want the median, 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	// run [0,100] -> step [10,90] -> forward [10,40], backward [35,70]
	// (overlapping forward by 5), sgd [80,95] (running 5 past its parent).
	spans := []span{
		{Name: "run", Parent: -1, Start: us(0), End: us(100)},
		{Name: "step", Parent: 0, Start: us(10), End: us(90)},
		{Name: "forward", Parent: 1, Start: us(10), End: us(40)},
		{Name: "backward", Parent: 1, Start: us(35), End: us(70)},
		{Name: "sgd", Parent: 1, Start: us(80), End: us(95)},
	}
	want := []time.Duration{us(20), us(10), us(30), us(35), us(15)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderWritesChromeTrace(t *testing.T) {
	rec := newRecorder()
	run := rec.begin(-1, "run", "", 0)
	now := time.Now()
	rec.add(run, "step", "step-0", 0, now, now.Add(time.Millisecond))
	rec.finish(run)
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "step" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Dur != 1000 || doc.TraceEvents[1].Args["key"] != "step-0" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
	if got := rec.durationsMS("step"); len(got) != 1 || got[0] != 1 {
		t.Errorf("durationsMS(step) = %v", got)
	}
}

func TestJobMixIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := jobMix(7, serveJobs, serveJobSteps), jobMix(7, serveJobs, serveJobSteps)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job lists")
	}
	if reflect.DeepEqual(a, jobMix(8, serveJobs, serveJobSteps)) {
		t.Fatal("two seeds gave the same job list")
	}
	if len(a) != serveJobs {
		t.Fatalf("%d jobs, want %d", len(a), serveJobs)
	}
	// The opening that makes one job queue and one degrade by construction.
	for i, spec := range a[:3] {
		if spec.Encoding != "none" || spec.Technique != "" || spec.StashBudget != 0 || spec.Shards != 0 || spec.AllowDegrade != (i == 2) {
			t.Errorf("job %d of the opening is %+v", i, spec)
		}
	}
	// Shares: 40% plain (half may degrade), 30% fp16, 15% adaptive, 10%
	// spilling, 5% sharded, each within one job of its share.
	count := map[string]int{}
	tenants := map[string]bool{}
	for _, spec := range a {
		tenants[spec.Tenant] = true
		if spec.Steps != serveJobSteps || spec.Network != "tinycnn" || spec.Seed == 0 {
			t.Errorf("job %+v", spec)
		}
		switch {
		case spec.Shards == 2:
			count["shards"]++
		case spec.StashBudget > 0:
			count["spill"]++
		case spec.Technique == "adaptive":
			count["adaptive"]++
		case spec.Encoding == "fp16":
			count["fp16"]++
		case spec.AllowDegrade:
			count["degrade"]++
		default:
			count["none"]++
		}
	}
	for kind, share := range map[string]float64{"none": 0.20, "degrade": 0.20, "fp16": 0.30, "adaptive": 0.15, "spill": 0.10, "shards": 0.05} {
		if want := share * serveJobs; float64(count[kind]) < want-1 || float64(count[kind]) > want+1 {
			t.Errorf("%d %s jobs, want about %.1f", count[kind], kind, want)
		}
	}
	if len(tenants) != serveTenants {
		t.Errorf("%d tenants, want %d", len(tenants), serveTenants)
	}
	if small := jobMix(7, 8, 10); len(small) != 8 {
		t.Errorf("the quick list has %d jobs, want 8", len(small))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "step_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "steps_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, []float64{104, 105, 103, 104, 104}, verdictSame},
		{"slower by more than the bound", lower, steady, []float64{120, 121, 119, 120, 120}, verdictWorse},
		{"faster by more than the bound", lower, steady, []float64{80, 81, 79, 80, 80}, verdictBetter},
		{"throughput down is worse", higher, steady, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{"throughput up is better", higher, steady, []float64{120, 121, 119, 120, 120}, verdictBetter},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, verdictUnresolved},
		{"wide spread but every run faster", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, verdictBetter},
		{"wide spread and every run slower", lower, []float64{80, 100, 120, 90, 110}, []float64{150, 160, 170, 155, 165}, verdictWorse},
		{"single runs", lower, []float64{100}, []float64{125}, verdictWorse},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// Python: statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	if q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, stepMS ...float64) string {
		var f resultFile
		for i, v := range stepMS {
			f.Runs = append(f.Runs, runResult{
				Workload: "vgg_dense", Repeat: i,
				Metrics: map[string]measurement{"step_ms_p50": {Value: v, Unit: "ms"}},
			})
		}
		f.Runs = append(f.Runs, runResult{Workload: "vgg_dense", Trace: true,
			Metrics: map[string]measurement{"step_ms_p50": {Value: 1e9, Unit: "ms"}}}) // traced runs never count
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, 101, 99)
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, write("b.json", 102, 103, 101))
	if err != nil || worse || !strings.Contains(out.String(), verdictSame) {
		t.Errorf("agreeing runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, a, write("c.json", 130, 131, 129))
	if err != nil || !worse || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a regression: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing file compared without an error")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables this program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	var names []string
	why := map[string]string{serveName: serveWhy}
	for _, s := range trainSpecs {
		why[s.name] = s.why
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why != why[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why %q, the program says %q", w.Name, w.Why, why[w.Name])
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames())
	}
	check := func(section string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the program reports %d", section, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d] = %+v, the program reports %+v", section, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.Bound || d.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, the program applies %v", section, i, m.Name, m.Bound, d.Bound)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s[%d] %s: name or unit too long", section, i, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
}

// TestQuickSmoke runs every workload at 1/20 scale, untraced and traced,
// with the output checks on, so the harness cannot rot.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload for a second or two")
	}
	opt := options{seed: 3, seconds: 0, scale: 20, outDir: t.TempDir()}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(name, trace, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", name, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q", name, trace, d.Name, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(opt.outDir, "trace_"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(opt.outDir, "work-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	if _, err := runWorkload("nope", false, opt); err == nil {
		t.Error("an unknown workload ran")
	}
}
