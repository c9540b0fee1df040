package main

import (
	"strings"
	"testing"

	"gist/internal/experiments"
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
// the removed "entropy" tier among them — is a usage error (exit 2) that
// names the accepted set, before any experiment runs.
func TestTechniqueUsageError(t *testing.T) {
	for _, name := range []string{"entropy", "bogus"} {
		var out, errOut strings.Builder
		if code := run([]string{"-technique", name, "-experiment", "ratio"}, &out, &errOut); code != 2 {
			t.Errorf("-technique %s exited %d, want 2", name, code)
		}
		if out.Len() != 0 {
			t.Errorf("-technique %s printed results:\n%s", name, out.String())
		}
		if !strings.Contains(errOut.String(), "none|binarize|ssdc|dpr|zvc|adaptive") {
			t.Errorf("-technique %s: stderr does not name the accepted set:\n%s", name, errOut.String())
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
