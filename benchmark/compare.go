package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) pair.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spread printed here is the one the driver computes. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median; 0
// when there are too few values to have one.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// judge applies a metric's bound to two sets of runs. b is worse when its
// median is worse than a's by more than the bound, better when it is better
// by more than the bound. Where either side's own spread is wider than the
// bound the medians cannot settle it: the pair is unresolved unless every
// run of one side beats every run of the other.
func judge(d metricDef, a, b []float64) (verdict string, change, spreadAB float64) {
	sign := 1.0 // change > 0 means b is worse
	if d.Better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	change = sign * ratio(medB-medA, medA)
	spreadAB = max(spread(a), spread(b))
	allBeat := func(x, y []float64) bool { // every x reads better than every y
		for _, xv := range x {
			for _, yv := range y {
				if sign*(xv-yv) >= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spreadAB > d.Bound && allBeat(b, a):
		return verdictBetter, change, spreadAB
	case spreadAB > d.Bound && allBeat(a, b) && change > d.Bound:
		return verdictWorse, change, spreadAB
	case spreadAB > d.Bound:
		return verdictUnresolved, change, spreadAB
	case change > d.Bound:
		return verdictWorse, change, spreadAB
	case change < -d.Bound:
		return verdictBetter, change, spreadAB
	}
	return verdictSame, change, spreadAB
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced collects, per workload and end-to-end metric, the value of every
// untraced run in the file.
func (f *resultFile) untraced() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) with the
// median of each side's repeats, the change, the spread and the verdict, and
// reports whether any pair is worse.
func compareFiles(w io.Writer, aPath, bPath string) (anyWorse bool, err error) {
	fa, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	fb, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	a, b := fa.untraced(), fb.untraced()
	fmt.Fprintf(w, "%-12s %-18s %5s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			va, vb := a[name][d.Name], b[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change, sp := judge(d, va, vb)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(w, "%-12s %-18s %2d/%-2d %14.6g %14.6g %+8.1f%% %8.1f%% %6.0f%%  %s\n",
				name, d.Name, len(va), len(vb), median(va), median(vb), 100*change, 100*sp, 100*d.Bound, verdict)
		}
	}
	return anyWorse, nil
}
