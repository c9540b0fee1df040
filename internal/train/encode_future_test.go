package train

// Encode-future tests: a stash's encode runs on its own goroutine, through
// the forward kernels that follow its retirement, while everything decided
// about the stash — its fault draws, its place in the store, the recycle of
// its raw output — stays on the executor's goroutine, in retirement order.

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/telemetry"
)

// encodedStashes counts the nodes whose stash the executor encodes.
func encodedStashes(e *Executor) int {
	n := 0
	for _, as := range e.assign {
		if as != nil {
			n++
		}
	}
	return n
}

// TestEncodeFuturesRunOffTheStepTrack pins where an encode runs: every
// encoded stash of every step is encoded in its own async-encode span, on a
// track other than the step's, and settled once inside the step — one
// retire span and one encode-overlap hit or miss each.
func TestEncodeFuturesRunOffTheStepTrack(t *testing.T) {
	withCodec(t, encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 768})
	g := richlessNet(8)
	sink := telemetry.New()
	sink.EnableTracing(1 << 16)
	e := NewExecutor(g, Options{Seed: 5, Integrity: true, Telemetry: sink,
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))})
	defer e.Close()
	x, labels := NewDataset(4, 2, 8, 0.3, 6).Batch(8)
	const steps = 3
	for i := 0; i < steps; i++ {
		e.Step(x, labels, 0.01)
	}
	want := steps * encodedStashes(e)
	if want == 0 {
		t.Fatal("the analysis encodes nothing; the test proves nothing")
	}

	var buf bytes.Buffer
	if err := sink.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	var stepTracks, encodeTracks []int
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans[ev.Name]++
		switch ev.Name {
		case "step":
			stepTracks = append(stepTracks, ev.TID)
		case "async-encode":
			encodeTracks = append(encodeTracks, ev.TID)
		}
	}
	if spans["async-encode"] != want || spans["retire"] != want {
		t.Fatalf("%d async-encode and %d retire spans over %d steps, want %d each",
			spans["async-encode"], spans["retire"], steps, want)
	}
	for _, tid := range encodeTracks {
		if slices.Contains(stepTracks, tid) {
			t.Fatalf("an encode ran on track %d, a step's track: it did not leave the executor's goroutine", tid)
		}
	}
	v := sink.Values()
	if got := v["train.encode_overlap.hits"] + v["train.encode_overlap.misses"]; got != int64(want) {
		t.Fatalf("encode overlap hits + misses = %d, want one per encoded stash per step (%d)", got, want)
	}
}

// TestEncodeFuturesKeepDrawOrder pins that moving the encode off the
// executor's goroutine moved no fault draw with it: every draw of a step
// without a budget — encode and decode failures, bit flips, and the
// allocation budget, a running total whose overrun lands on whichever stash
// crosses it — happens when the stash settles, in retirement order. So the
// event log is the same sequence, not merely the same multiset, at every
// codec worker count, and so are the recovery counters and the weights.
func TestEncodeFuturesKeepDrawOrder(t *testing.T) {
	run := func(workers int) ([]faults.Event, RobustnessStats, []float32) {
		g := richlessNet(8)
		inj := faults.New(faults.Config{Seed: 9, BitFlipRate: 0.3, EncodeFailRate: 0.1,
			DecodeFailRate: 0.1, AllocBudgetBytes: 4096, AllocFailures: 3})
		e := NewExecutor(g, Options{Seed: 7, Faults: inj, Pool: bufpool.New(),
			Codec:     &encoding.Codec{Pool: parallel.NewPool(workers), ChunkElems: 768},
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))})
		defer e.Close()
		d := NewDataset(4, 2, 8, 0.3, 8)
		for step := 1; step <= 12; step++ {
			inj.BeginStep(step)
			x, labels := d.Batch(8)
			e.TryStep(x, labels, 0.01) // a failed step applies no update
		}
		return inj.Events(), e.Robust, flatParams(e)
	}
	events, robust, params := run(1)
	counts := map[faults.Kind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	for _, k := range []faults.Kind{faults.BitFlip, faults.EncodeFail, faults.DecodeFail, faults.AllocFail} {
		if counts[k] == 0 {
			t.Fatalf("no %v fired (%v); the test proves nothing about it", k, counts)
		}
	}
	for _, w := range []int{2, 4} {
		gotEvents, gotRobust, gotParams := run(w)
		if !slices.Equal(gotEvents, events) {
			t.Fatalf("workers %d: fault log differs from workers 1:\n got %v\nwant %v", w, gotEvents, events)
		}
		if gotRobust != robust {
			t.Fatalf("workers %d: recovery counters %+v, workers 1 %+v", w, gotRobust, robust)
		}
		paramsBitsEqual(t, gotParams, params, "weights at another codec worker count")
	}
}

// TestEncodeFailureStopsLaterSettles pins the failure edge of the encode
// futures: when the first settled stash fails, the encodes launched after it
// have already run, yet none of them is drawn for, stored or armed, every
// one is waited for before Forward returns, and Close hands the pool back
// every byte.
func TestEncodeFailureStopsLaterSettles(t *testing.T) {
	withCodec(t, encoding.Codec{Pool: parallel.NewPool(4), ChunkElems: 768})
	g := richlessNet(8)
	inj := faults.New(faults.Config{Seed: 1, EncodeFailRate: 1})
	pool := bufpool.New()
	e := NewExecutor(g, Options{Seed: 3, Faults: inj, Pool: pool,
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))})
	if encodedStashes(e) < 2 {
		t.Fatal("need two encoded stashes for a later encode to exist")
	}
	x, labels := NewDataset(4, 2, 8, 0.3, 4).Batch(8)
	_, _, err := e.TryStep(x, labels, 0.01)
	if !errors.Is(err, faults.ErrInjectedEncode) {
		t.Fatalf("TryStep = %v, want the injected encode failure", err)
	}
	if n := inj.Counts()[faults.EncodeFail]; n != 1 {
		t.Fatalf("%d encode failures drawn, want 1: only the first settle may draw", n)
	}
	if len(e.inFlight) != 0 {
		t.Fatalf("%d encodes still in flight after Forward", len(e.inFlight))
	}
	if puts := e.StashStore().Stats().Puts; puts != 0 {
		t.Fatalf("%d stashes stored after the first settle failed", puts)
	}
	noFutureArmed(t, e)
	e.Close()
	if got := pool.Stats().InUseBytes; got != 0 {
		t.Fatalf("pool still holds %d B after Close", got)
	}
}
