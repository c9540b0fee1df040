package server

import (
	"fmt"
	"strings"
	"testing"

	"gist/internal/encoding"
	"gist/internal/race"
)

// footprint prices one rung from scratch, with a fresh graph: the
// reference every price-table entry must equal.
func footprint(spec JobSpec, encName string) (int64, error) {
	cfg, err := jobConfig(spec, encName)
	if err != nil {
		return 0, err
	}
	g, err := buildNet(spec)
	if err != nil {
		return 0, err
	}
	return footprintOf(spec, g, cfg)
}

// TestFootprintLadderMonotonic pins the degradation premise: each rung
// of the encoding ladder must plan a strictly smaller footprint than the
// one before it (that is what makes walking the ladder a degradation).
func TestFootprintLadderMonotonic(t *testing.T) {
	spec := JobSpec{Network: "tinyvgg", Batch: 8, Classes: 4}.withDefaults()
	var prev int64
	for i, enc := range ladder {
		fp, err := footprint(spec, enc)
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if fp <= 0 {
			t.Fatalf("%s: non-positive footprint %d", enc, fp)
		}
		if i > 0 && fp >= prev {
			t.Fatalf("%s footprint %d not below %s footprint %d", enc, fp, ladder[i-1], prev)
		}
		prev = fp
	}
}

// TestFootprintScalesWithShards pins the replica term: a sharded job
// must reserve more than a single-executor one.
func TestFootprintScalesWithShards(t *testing.T) {
	spec := JobSpec{Network: "tinycnn", Batch: 8}.withDefaults()
	one, err := footprint(spec, "none")
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 4
	four, err := footprint(spec, "none")
	if err != nil {
		t.Fatal(err)
	}
	if four < 4*one {
		t.Fatalf("4-shard footprint %d < 4x single %d", four, one)
	}
}

// TestPlanAdmissionDegrades verifies the ladder walk: a budget between
// the fp16 and none footprints admits an AllowDegrade job at a
// compressed rung, and refuses the same job without the opt-in.
func TestPlanAdmissionDegrades(t *testing.T) {
	spec := JobSpec{Network: "tinyvgg", Batch: 8, AllowDegrade: true}.withDefaults()
	full, _ := footprint(spec, "none")
	fp8, _ := footprint(spec, "fp8")
	limit := (full + fp8) / 2

	enc, fp, ok, err := planAdmission(&prices{spec: spec}, "none", limit)
	if err != nil || !ok {
		t.Fatalf("planAdmission: ok=%v err=%v", ok, err)
	}
	if enc == "none" || fp > limit {
		t.Fatalf("chose %s at %d bytes (limit %d)", enc, fp, limit)
	}

	spec.AllowDegrade = false
	_, _, ok, err = planAdmission(&prices{spec: spec}, "none", limit)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("non-degradable job fit a budget below its footprint")
	}
}

// TestPlanAdmissionRejectsImpossible: nothing fits a 1-byte budget.
func TestPlanAdmissionRejectsImpossible(t *testing.T) {
	spec := JobSpec{AllowDegrade: true}.withDefaults()
	_, _, ok, err := planAdmission(&prices{spec: spec}, "none", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("job fit a 1-byte budget")
	}
}

// TestBadSpecErrors pins the validation errors.
func TestBadSpecErrors(t *testing.T) {
	if _, err := footprint(JobSpec{Network: "resnet50"}.withDefaults(), "none"); err == nil || !strings.Contains(err.Error(), "unknown network") {
		t.Fatalf("unknown network: err = %v", err)
	}
	if _, err := footprint(JobSpec{}.withDefaults(), "zip"); err == nil || !strings.Contains(err.Error(), "unknown encoding") {
		t.Fatalf("unknown encoding: err = %v", err)
	}
}

// TestPricesMatchFootprint pins the price table's exactness: over every
// network, shard count, stash budget, technique and degrade opt-in, each
// rung the table prices — from one graph, in reverse ladder order — is the
// footprint a fresh call computes, and a re-plan over rungs already priced
// allocates nothing.
func TestPricesMatchFootprint(t *testing.T) {
	techniques := []string{"", "adaptive"}
	for _, tech := range encoding.RegisteredTechniques() {
		techniques = append(techniques, tech.String())
	}
	for _, network := range []string{"tinycnn", "tinyvgg"} {
		for _, shards := range []int{1, 2} {
			for _, budget := range []int64{0, 4096} {
				for _, tech := range techniques {
					for _, degrade := range []bool{false, true} {
						spec := JobSpec{Network: network, Shards: shards, StashBudget: budget,
							Technique: tech, AllowDegrade: degrade}.withDefaults()
						name := fmt.Sprintf("%s/shards=%d/budget=%d/tech=%q/degrade=%v",
							network, shards, budget, tech, degrade)
						checkPrices(t, name, spec)
					}
				}
			}
		}
	}
}

func checkPrices(t *testing.T, name string, spec JobSpec) {
	t.Helper()
	p := &prices{spec: spec}
	for rung := len(ladder) - 1; rung >= 0; rung-- {
		want, werr := footprint(spec, ladder[rung])
		got, gerr := p.price(rung)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("%s: %s priced (%d, %v), footprint (%d, %v)", name, ladder[rung], got, gerr, want, werr)
		}
		if werr != nil {
			return
		}
	}
	for _, limit := range []int64{1, p.fp[2], 1 << 40} {
		for _, start := range ladder {
			enc, fp, ok, err := planAdmission(p, start, limit)
			wenc, wfp, wok, werr := planAdmission(&prices{spec: spec}, start, limit)
			if enc != wenc || fp != wfp || ok != wok || err != nil || werr != nil {
				t.Fatalf("%s: plan(%s, %d) = (%s, %d, %v, %v) from the table, (%s, %d, %v, %v) fresh",
					name, start, limit, enc, fp, ok, err, wenc, wfp, wok, werr)
			}
		}
	}
	if race.Enabled {
		return
	}
	if a := testing.AllocsPerRun(20, func() { planAdmission(p, "none", 1) }); a != 0 {
		t.Fatalf("%s: re-plan over priced rungs allocates %v times", name, a)
	}
}

// TestPriceTableLivesWhileQueued: a queued job holds its price table, and
// leaving the queue — to start or to be cancelled — drops it.
func TestPriceTableLivesWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1})
	tableOf := func(id string) *prices {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id].prices
	}
	running, err := s.Submit(JobSpec{Name: "block-running", Steps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Name: "queued", Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st := mustStatus(t, s, queued.ID); st.State != StateQueued {
		t.Fatalf("second job is %s, want queued behind the first", st.State)
	}
	if tableOf(running.ID) != nil {
		t.Fatal("a running job still holds its price table")
	}
	if tableOf(queued.ID) == nil {
		t.Fatal("a queued job has no price table")
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if tableOf(queued.ID) != nil {
		t.Fatal("a cancelled job still holds its price table")
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}
