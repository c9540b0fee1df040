package main

import (
	"strings"
	"testing"

	"gist/internal/experiments"
	"gist/internal/race"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	got := strings.Fields(out.String())
	want := experiments.IDs()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %v, want %v", got, want)
	}
	if !strings.Contains(out.String(), "robust\n") {
		t.Error("-list must name robust")
	}
}

func TestRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-technique", "bogus"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed results before failing:\n%s", args, out.String())
		}
	}
}

// TestTechniqueUsageError pins that a -technique the codec does not have —
// the removed "entropy" tier and "ssdc", a planning model only, among them —
// is a usage error (exit 2) that names the accepted set with the usage,
// before any experiment runs.
func TestTechniqueUsageError(t *testing.T) {
	for _, name := range []string{"entropy", "bogus", "ssdc"} {
		var out, errOut strings.Builder
		if code := run([]string{"-technique", name, "-experiment", "ratio"}, &out, &errOut); code != 2 {
			t.Errorf("-technique %s exited %d, want 2", name, code)
		}
		if out.Len() != 0 {
			t.Errorf("-technique %s printed results:\n%s", name, out.String())
		}
		if !strings.Contains(errOut.String(), "(want none|binarize|dpr|zvc|adaptive)") || !strings.Contains(errOut.String(), "Usage of gistbench") {
			t.Errorf("-technique %s: stderr does not name the accepted set with the usage:\n%s", name, errOut.String())
		}
	}
}

// TestExperimentUsageError pins that an -experiment ID the table does not
// have — the deleted GPU-only extension studies among them — is a usage
// error (exit 2) that names the accepted IDs, before any listener or
// experiment starts.
func TestExperimentUsageError(t *testing.T) {
	want := strings.Join(experiments.IDs(), "|")
	for _, id := range []string{"recompute", "energy", "workspace", "algoselect", "bogus"} {
		var out, errOut strings.Builder
		if code := run([]string{"-experiment", id}, &out, &errOut); code != 2 {
			t.Errorf("-experiment %s exited %d, want 2", id, code)
		}
		if out.Len() != 0 {
			t.Errorf("-experiment %s printed results:\n%s", id, out.String())
		}
		if !strings.Contains(errOut.String(), "(want "+want+")") || !strings.Contains(errOut.String(), "Usage of gistbench") {
			t.Errorf("-experiment %s: stderr does not name the accepted IDs with the usage:\n%s", id, errOut.String())
		}
	}
}

func TestRobustCrossChecksOK(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-experiment", "robust", "-steps", "20", "-faultseed", "7"}, &out, &errOut); code != 0 {
		t.Fatalf("robust exited %d: %s", code, errOut.String())
	}
	var checks int
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "CRC-detected") || strings.Contains(line, "retries for") {
			checks++
			if !strings.HasSuffix(line, "-> OK") {
				t.Errorf("cross-check line does not end -> OK: %q", line)
			}
		}
	}
	if checks != 2 {
		t.Errorf("found %d cross-check lines, want 2:\n%s", checks, out.String())
	}
}

// TestExperimentsDeterministic runs every experiment that finishes in
// under half a second twice in one process and requires byte-identical CSV
// (fig9's modeled step times, for one, sum every stash's encoding
// overhead, and a float64 sum is only the same from run to run when its
// order is). It then runs robust under -technique adaptive, whose stashes
// fall back from ZVC to dense DPR, at one and at four codec workers, and
// requires the same output again, and realized, whose pooled training runs
// read stashes as stored, twice at one codec worker and once at four, and
// distributed, which trains replica groups, the same way.
func TestExperimentsDeterministic(t *testing.T) {
	csv := func(t *testing.T, args ...string) string {
		t.Helper()
		var out, errOut strings.Builder
		if code := run(append(args, "-csv"), &out, &errOut); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errOut.String())
		}
		return out.String()
	}
	for _, id := range []string{"fig1", "fig3", "table1", "fig8", "fig9", "fig10", "fig11",
		"fig13", "fig15", "fig17", "cdma", "mbsweep", "sparsitysweep", "robust"} {
		t.Run(id, func(t *testing.T) {
			if first, second := csv(t, "-experiment", id), csv(t, "-experiment", id); second != first {
				t.Fatalf("run 2 printed\n%s\nrun 1 printed\n%s", second, first)
			}
		})
	}
	t.Run("robust-adaptive-parallel", func(t *testing.T) {
		serial := csv(t, "-experiment", "robust", "-technique", "adaptive", "-parallel", "1")
		if !strings.Contains(serial, "sparse_fallbacks,") || strings.Contains(serial, "sparse_fallbacks,0\n") {
			t.Fatalf("no stash fell back, so the run misses the fallback path:\n%s", serial)
		}
		if par := csv(t, "-experiment", "robust", "-technique", "adaptive", "-parallel", "4"); par != serial {
			t.Fatalf("-parallel 4 printed\n%s\n-parallel 1 printed\n%s", par, serial)
		}
	})
	for _, id := range []string{"realized", "distributed"} {
		t.Run(id+"-parallel", func(t *testing.T) {
			if race.Enabled && id == "realized" {
				t.Skip("three pooled training sweeps take minutes under the race detector")
			}
			first := csv(t, "-experiment", id, "-parallel", "1")
			if second := csv(t, "-experiment", id, "-parallel", "1"); second != first {
				t.Fatalf("run 2 printed\n%s\nrun 1 printed\n%s", second, first)
			}
			if par := csv(t, "-experiment", id, "-parallel", "4"); par != first {
				t.Fatalf("-parallel 4 printed\n%s\n-parallel 1 printed\n%s", par, first)
			}
		})
	}
}
