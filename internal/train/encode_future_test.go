package train

// Encode-future tests: a stash's encode is launched right after its
// producing kernel and runs on the executor's encode workers, beside the
// forward kernels that read the map, while everything decided about the
// stash — its fault draws, its place in the store, the recycle of its raw
// output — stays on the executor's goroutine, in retirement order.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/telemetry"
	"gist/internal/tensor"
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
// every byte. The second case catches a stash whose encode was launched at
// production and whose retirement the failure then skipped.
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

	t.Run("launched-unretired", func(t *testing.T) {
		// TinyCNN's first settle (the input's, which fails) comes at pool3's
		// kernel, after pool3's own encode has launched: pool3 retires only
		// at conv4.
		g := networks.TinyCNN(8, 4)
		inj := faults.New(faults.Config{Seed: 1, EncodeFailRate: 1})
		pool := bufpool.New()
		e := NewExecutor(g, Options{Seed: 3, Faults: inj, Pool: pool,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))})
		// At the first kernel after the failure settled, the stashes whose
		// encode is launched but which have not joined inFlight were produced
		// before the failure and retire after it.
		var later []*graph.Node
		var srcs []*tensor.Tensor
		seen := false
		probeForward(e, func(*graph.Node) {
			if seen || e.stashErr == nil {
				return
			}
			seen = true
			for _, nd := range g.Nodes {
				if e.futures[nd.ID].encoding && !slices.Contains(e.inFlight, nd) {
					later = append(later, nd)
					srcs = append(srcs, e.futures[nd.ID].src)
				}
			}
		})
		x, labels := NewDataset(4, 3, 16, 0.4, 2).Batch(8)
		e.Forward(x, labels, true) // the first pass: it records, on the heap
		if len(later) == 0 {
			t.Fatal("no encode was launched and unretired when the failure settled; the case proves nothing")
		}
		for i, nd := range later {
			f := &e.futures[nd.ID]
			if f.encoding || !f.settled.Load() {
				t.Fatalf("%q: encode not waited for before Forward returned", nd.Name)
			}
			if f.armed {
				t.Fatalf("%q: armed after the failure", nd.Name)
			}
			if _, held := e.arena.heap[srcs[i]]; !held || srcs[i].Data == nil {
				t.Fatalf("%q: raw output released before the pass ended", nd.Name)
			}
		}
		if err := e.Backward(); !errors.Is(err, faults.ErrInjectedEncode) {
			t.Fatalf("Backward = %v, want the injected encode failure", err)
		}
		for _, ev := range inj.Events() {
			if slices.ContainsFunc(later, func(nd *graph.Node) bool { return nd.Name == ev.Node }) {
				t.Fatalf("a fault was drawn for %q, whose retirement the failure skipped", ev.Node)
			}
		}
		if puts := e.StashStore().Stats().Puts; puts != 0 {
			t.Fatalf("%d stashes stored after the first settle failed", puts)
		}
		noFutureArmed(t, e)
		e.Close()
		for i, nd := range later {
			if srcs[i].Data != nil {
				t.Fatalf("%q: raw output not swept by Close", nd.Name)
			}
		}
		// A second release of a swept output would unbalance the pool.
		if got := pool.Stats().InUseBytes; got != 0 {
			t.Fatalf("pool still holds %d B after Close", got)
		}
	})
}

// TestEncodeLaunchesAtProduction pins when an encode starts and when it
// settles, on four graphs. When a forward kernel runs, the encode of every
// encoded stash it reads has been launched on the map it reads and not yet
// waited for — so the encode overlaps the map's forward consumers — while an
// inference Forward launches none. And stashes still settle in retirement
// order: each step's retire spans name the encoded stashes in the order of
// their last forward use (node order on ties), then the encoded sinks, which
// Backward retires.
func TestEncodeLaunchesAtProduction(t *testing.T) {
	nets := []struct {
		name          string
		g             func() *graph.Graph
		skipUnderRace bool
	}{
		{"TinyCNN", func() *graph.Graph { return networks.TinyCNN(8, 4) }, false},
		{"TinyVGG", func() *graph.Graph { return networks.TinyVGG(2, 8) }, false},
		{"ConvChain", func() *graph.Graph { return convChain(4) }, false},
		{"ResNetCIFAR20", func() *graph.Graph { return networks.ResNetCIFAR(4, 20) }, true},
	}
	for _, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			if n.skipUnderRace && race.Enabled {
				t.Skip("ResNet-20 steps are too slow under the race detector")
			}
			g := n.g()
			sink := telemetry.New()
			sink.EnableTracing(1 << 16)
			e := NewExecutor(g, Options{Seed: 3, Pool: bufpool.New(), Telemetry: sink,
				Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
				Codec:     &encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 768}})
			defer e.Close()

			tl := graph.BuildTimeline(g)
			var retiring, sinks []*graph.Node
			for _, nd := range g.Nodes {
				switch {
				case e.assign[nd.ID] == nil:
				case len(nd.Consumers()) > 0:
					retiring = append(retiring, nd)
				default:
					sinks = append(sinks, nd)
				}
			}
			if len(retiring) < 2 {
				t.Fatalf("%d encoded stashes with a forward consumer; the test proves nothing", len(retiring))
			}
			slices.SortStableFunc(retiring, func(a, b *graph.Node) int {
				return cmp.Compare(graph.LastForwardUse(tl, a), graph.LastForwardUse(tl, b))
			})
			var want []string
			for _, nd := range append(retiring, sinks...) {
				want = append(want, nd.Name)
			}

			training := true
			read := map[int]bool{}
			probeForward(e, func(nd *graph.Node) {
				for _, in := range nd.Inputs {
					if e.assign[in.ID] == nil {
						continue
					}
					f := &e.futures[in.ID]
					if !training && f.encoding {
						t.Fatalf("an inference Forward launched %q's encode", in.Name)
					}
					if training && (!f.encoding || f.src != e.outs[in.ID]) {
						t.Fatalf("at %q's forward kernel the encode of its input %q is not in flight on the map it reads", nd.Name, in.Name)
					}
					read[in.ID] = true
				}
			})
			in := g.InputNodes()[0].OutShape
			x, labels := NewDataset(int(in[1]), in[1], in[2], 0.3, 5).Batch(in[0])
			const steps = 2
			for step := 0; step < steps; step++ {
				if _, _, err := e.TryStep(x, labels, 0.01); err != nil {
					t.Fatal(err)
				}
			}
			for _, nd := range retiring {
				if !read[nd.ID] {
					t.Fatalf("no probed forward kernel read %q; its launch point went unchecked", nd.Name)
				}
			}

			var buf bytes.Buffer
			if err := sink.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Ph   string         `json:"ph"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
				t.Fatal(err)
			}
			var settled []string
			for _, ev := range trace.TraceEvents {
				if ev.Ph == "X" && ev.Name == "retire" {
					settled = append(settled, fmt.Sprint(ev.Args["stash"]))
				}
			}
			if len(settled) != steps*len(want) {
				t.Fatalf("%d settles over %d steps, want %d per step", len(settled), steps, len(want))
			}
			for s := 0; s < steps; s++ {
				if got := settled[s*len(want) : (s+1)*len(want)]; !slices.Equal(got, want) {
					t.Fatalf("step %d settled\n %v\nwant retirement order\n %v", s, got, want)
				}
			}

			training = false
			e.Forward(x, labels, false)
			for i := range e.futures {
				if e.futures[i].encoding {
					t.Fatalf("an inference Forward left %q's encode launched", e.futures[i].node)
				}
			}
		})
	}
}

// TestStashWorkersLifecycle pins the lifetime of an executor's stash
// workers. With encodings, its first step starts as many encode workers as
// its codec pool has workers, and one decode worker; Close stops them, so
// the goroutine count returns to its level before the executor existed; a
// step after Close starts them again. An executor with no encodings starts
// none.
func TestStashWorkersLifecycle(t *testing.T) {
	settle := func(want int, when string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() != want {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines, want %d\n%s", when, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	const workers = 3
	x, labels := NewDataset(4, 3, 16, 0.4, 2).Batch(8)
	base := runtime.NumGoroutine()

	g := networks.TinyCNN(8, 4)
	d := NewExecutor(g, Options{Seed: 1, Pool: bufpool.New(),
		Codec: &encoding.Codec{Pool: parallel.NewPool(workers)}})
	for i := 0; i < 3; i++ {
		d.Step(x, labels, 0.01)
	}
	if d.encoders.q != nil || d.decoder.q != nil {
		t.Fatal("an executor with no encodings started stash workers")
	}
	settle(base, "unencoded executor after 3 steps")
	d.Close()

	g = networks.TinyCNN(8, 4)
	e := NewExecutor(g, Options{Seed: 1, Pool: bufpool.New(),
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		Codec:     &encoding.Codec{Pool: parallel.NewPool(workers)}})
	for round := 0; round < 2; round++ {
		for i := 0; i < 2; i++ {
			e.Step(x, labels, 0.01)
		}
		settle(base+workers+1, "encoded executor after its steps")
		e.Close()
		settle(base, "encoded executor after Close")
	}
}
