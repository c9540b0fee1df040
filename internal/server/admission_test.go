package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/race"
)

// footprint prices one rung from scratch, with a fresh graph and plan:
// the reference every memo price must equal.
func footprint(spec JobSpec, encName string) (int64, error) {
	var g *graph.Graph
	sum, err := planOf(spec, encName, &g)
	if err != nil {
		return 0, err
	}
	return footprintOf(spec, sum), nil
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

	enc, fp, ok, err := planAdmission(&planMemo{}, spec, "none", limit)
	if err != nil || !ok {
		t.Fatalf("planAdmission: ok=%v err=%v", ok, err)
	}
	if enc == "none" || fp > limit {
		t.Fatalf("chose %s at %d bytes (limit %d)", enc, fp, limit)
	}

	spec.AllowDegrade = false
	_, _, ok, err = planAdmission(&planMemo{}, spec, "none", limit)
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
	_, _, ok, err := planAdmission(&planMemo{}, spec, "none", 1)
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

// TestPricesMatchFootprint pins the memo's exactness: over every network,
// shard count, stash budget, technique and degrade opt-in, priced through
// one memo — so most prices are hits on a summary another budget or shard
// count planned — each rung's price is the footprint a fresh plan
// computes, and every admission plan is the one a fresh memo makes.
func TestPricesMatchFootprint(t *testing.T) {
	techniques := []string{"", "adaptive"}
	for _, tech := range encoding.RegisteredTechniques() {
		techniques = append(techniques, tech.String())
	}
	m := &planMemo{}
	for _, network := range []string{"tinycnn", "tinyvgg"} {
		for _, shards := range []int{1, 2} {
			for _, budget := range []int64{0, 4096} {
				for _, tech := range techniques {
					for _, degrade := range []bool{false, true} {
						spec := JobSpec{Network: network, Shards: shards, StashBudget: budget,
							Technique: tech, AllowDegrade: degrade}.withDefaults()
						name := fmt.Sprintf("%s/shards=%d/budget=%d/tech=%q/degrade=%v",
							network, shards, budget, tech, degrade)
						checkPrices(t, name, m, spec)
					}
				}
			}
		}
	}
	if n := len(m.m); n == 0 || n > planMemoCap {
		t.Fatalf("the memo holds %d summaries, want 1..%d", n, planMemoCap)
	}
}

// checkPrices prices every rung of spec through m, in reverse ladder
// order and over one graph, against the from-scratch footprint, then checks that every
// admission plan over m is the one a fresh memo makes.
func checkPrices(t *testing.T, name string, m *planMemo, spec JobSpec) {
	t.Helper()
	var fp16 int64
	var g *graph.Graph // the misses share one graph, as planAdmission's do
	for rung := len(ladder) - 1; rung >= 0; rung-- {
		want, werr := footprint(spec, ladder[rung])
		got, gerr := m.price(spec, rung, &g)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("%s: %s priced (%d, %v), footprint (%d, %v)", name, ladder[rung], got, gerr, want, werr)
		}
		if werr != nil {
			return
		}
		if ladder[rung] == "fp16" {
			fp16 = got
		}
	}
	for _, limit := range []int64{1, fp16, 1 << 40} {
		for _, start := range ladder {
			enc, fp, ok, err := planAdmission(m, spec, start, limit)
			wenc, wfp, wok, werr := planAdmission(&planMemo{}, spec, start, limit)
			if enc != wenc || fp != wfp || ok != wok || err != nil || werr != nil {
				t.Fatalf("%s: plan(%s, %d) = (%s, %d, %v, %v) from the memo, (%s, %d, %v, %v) fresh",
					name, start, limit, enc, fp, ok, err, wenc, wfp, wok, werr)
			}
		}
	}
}

// TestMemoHitsAllocateNothing: once a server has planned a configuration,
// pricing it again allocates nothing, both as Submit prices (the requested
// rung against the whole budget) and as the pump re-plans a queued job
// (down the whole ladder against a budget nothing fits).
func TestMemoHitsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newTestServer(t, Config{})
	spec := JobSpec{Network: "tinyvgg", Encoding: "lossless", Technique: "adaptive", AllowDegrade: true}.withDefaults()
	if _, _, _, err := planAdmission(&s.plans, spec, "none", 1); err != nil {
		t.Fatal(err)
	}
	submit := func() { planAdmission(&s.plans, spec, spec.Encoding, s.cfg.MemBudgetBytes) }
	replan := func() { planAdmission(&s.plans, spec, "none", 1) }
	for name, price := range map[string]func(){"submit": submit, "re-plan": replan} {
		if a := testing.AllocsPerRun(50, price); a != 0 {
			t.Fatalf("%s: a memo hit allocates %v times", name, a)
		}
	}
}

// TestMemoStoresNoError: a failed plan leaves nothing behind, so a bad
// technique followed by a good one with every other field equal prices
// the good one exactly.
func TestMemoStoresNoError(t *testing.T) {
	m := &planMemo{}
	bad := JobSpec{Network: "tinyvgg", Technique: "lzma"}.withDefaults()
	if _, err := m.price(bad, 0, new(*graph.Graph)); err == nil || !strings.Contains(err.Error(), "unknown technique") {
		t.Fatalf("bad technique: err = %v", err)
	}
	if len(m.m) != 0 {
		t.Fatalf("a failed plan left %d summaries in the memo", len(m.m))
	}
	good := bad
	good.Technique = "zvc"
	for rung := range ladder {
		want, err := footprint(good, ladder[rung])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.price(good, rung, new(*graph.Graph)); err != nil || got != want {
			t.Fatalf("%s: priced (%d, %v), footprint %d", ladder[rung], got, err, want)
		}
	}
}

// TestMemoCap fills the memo past its cap with client-chosen batch sizes
// at every rung: every price stays exact, a repeated key stays exact after
// the memo was cleared under it, and the memo never holds more than the
// cap.
func TestMemoCap(t *testing.T) {
	m := &planMemo{}
	for batch := 1; batch <= planMemoCap/len(ladder)+2; batch++ {
		for rung := range ladder {
			for _, b := range []int{batch, 1} {
				spec := JobSpec{Batch: b, StashBudget: int64(batch) * 512}.withDefaults()
				want, err := footprint(spec, ladder[rung])
				if err != nil {
					t.Fatal(err)
				}
				if got, err := m.price(spec, rung, new(*graph.Graph)); err != nil || got != want {
					t.Fatalf("batch %d at %s: priced (%d, %v), footprint %d", b, ladder[rung], got, err, want)
				}
				if len(m.m) > planMemoCap {
					t.Fatalf("the memo holds %d summaries, cap %d", len(m.m), planMemoCap)
				}
			}
		}
	}
}

// TestConcurrentSubmitsShareMemo submits jobs of overlapping plan keys from
// several goroutines (the race detector's case: Submit prices outside the
// server's lock) and checks each admitted footprint against a fresh plan.
func TestConcurrentSubmitsShareMemo(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1})
	specs := []JobSpec{
		{Name: "block-a", Steps: 1000},
		{Name: "q-b", Steps: 1, Encoding: "fp16"},
		{Name: "q-c", Steps: 1, Encoding: "fp16", StashBudget: 4096},
		{Name: "q-d", Steps: 1, Shards: 2, Technique: "adaptive", Encoding: "lossless"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range specs {
				spec := specs[(i+w)%len(specs)]
				st, err := s.Submit(spec)
				if err != nil {
					errs <- err
					continue
				}
				want, err := footprint(st.Spec, st.Encoding)
				if err != nil || st.FootprintBytes != want {
					errs <- fmt.Errorf("%s: reserved %d, footprint (%d, %v)", spec.Name, st.FootprintBytes, want, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, st := range s.List() {
		if strings.HasPrefix(st.Spec.Name, "block") {
			if err := s.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
}
