package train

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/race"
	"gist/internal/tensor"
)

// passLog wraps an executor to record, per TryStep or Eval call, what its
// step arena did: the heap allocations it fell back to (misses), the slab
// views it served (hits), whether the call's own pass ended still on its
// layout, and whether the call failed.
type passLog struct {
	*Executor
	calls []passObs
}

type passObs struct {
	eval, failed   bool
	misses, hits   int64
	stayedOnLayout bool
}

func (l *passLog) observe(eval bool, fn func() error) {
	before := l.ArenaStats()
	err := fn()
	after := l.ArenaStats()
	l.calls = append(l.calls, passObs{eval: eval, failed: err != nil,
		misses: after.Misses - before.Misses, hits: after.Hits - before.Hits,
		stayedOnLayout: l.arena != nil && l.arena.onLayout})
}

func (l *passLog) TryStep(x *tensor.Tensor, labels []int, lr float32) (loss float64, errs int, err error) {
	l.observe(false, func() error {
		loss, errs, err = l.Executor.TryStep(x, labels, lr)
		return err
	})
	return loss, errs, err
}

func (l *passLog) Eval(x *tensor.Tensor, labels []int) (loss float64, errs int) {
	l.observe(true, func() error {
		loss, errs = l.Executor.Eval(x, labels)
		return nil
	})
	return loss, errs
}

// TestArenaDivergenceWall drives the step arena off its recorded layout —
// fault-injected RunRecoverable runs, Eval calls between training steps, a
// step cancelled between Forward and Backward — and holds it to the heap
// executor: the same weights, losses and fault log, bit for bit. A pass that
// leaves its layout falls back to the heap for the rest of that pass, every
// whole pass after it replays with no heap allocation, and Close leaves no
// buffer referenced. A cancelled pass leaves the futures it armed to drain:
// on lrnChain, whose LRN reads two DPR stashes whole, the next call pays for
// their decode targets on the heap; on the other nets, whose Conv, FC and
// BatchNorm read every stash Forward retires as stored, it pays for none.
// Each net's flag is checked against its executor.
func TestArenaDivergenceWall(t *testing.T) {
	withCodec(t, encoding.Codec{ChunkElems: 768})
	nets := []struct {
		name    string
		g       func() *graph.Graph
		decodes bool // some stash Forward retires takes a decode target
	}{
		{"richNet", func() *graph.Graph { return richNet(8) }, false},
		{"convChain", func() *graph.Graph { return convChain(2) }, false},
		{"bnChain", func() *graph.Graph { return bnChain(2) }, false},
		{"lrnChain", func() *graph.Graph { return lrnChain(2) }, true},
	}
	cases := []struct {
		name string
		// run drives the engine and returns what must match the heap
		// executor's run exactly; cancelAt, when >= 0, is the step to
		// cancel between Forward and Backward.
		run      func(t *testing.T, en Engine, d *Dataset) []string
		faults   bool
		cancelAt int
	}{
		{"faults", func(t *testing.T, en Engine, d *Dataset) []string {
			_, rep, err := RunRecoverable(context.Background(), en, d, RunConfig{Minibatch: en.Batch(), Steps: 10, LR: 0.05},
				RecoveryConfig{MaxRetries: 20, Sleep: func(time.Duration) {}})
			if err != nil || rep.Retries == 0 {
				t.Fatalf("RunRecoverable: %v after %d retries; the case needs a failed step and a recovered one", err, rep.Retries)
			}
			return []string{fmt.Sprintf("%+v", rep.Robust), fmt.Sprint(rep.Retries)}
		}, true, -1},
		{"eval-between", stepLoop(8, -1), false, -1},
		{"cancelled", stepLoop(6, 2), false, 2},
	}
	for _, n := range nets {
		for _, c := range cases {
			t.Run(n.name+"/"+c.name, func(t *testing.T) {
				run := func(pool *bufpool.Pool) (*passLog, []string, []faults.Event) {
					g := n.g()
					var inj *faults.Injector
					if c.faults {
						inj = faults.New(faults.Config{Seed: 7, BitFlipRate: 0.05, EncodeFailRate: 0.03, DecodeFailRate: 0.03})
					}
					e := NewExecutor(g, Options{Seed: 21, Pool: pool, Faults: inj, Integrity: true,
						Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))})
					if got := retiredDecodeTarget(e); got != n.decodes {
						t.Fatalf("a stash Forward retires takes a decode target: %t, want %t", got, n.decodes)
					}
					in := g.InputNodes()[0].OutShape
					l := &passLog{Executor: e}
					out := c.run(t, l, NewDataset(4, in[1], in[2], 0.3, 22))
					return l, append(out, fmt.Sprintf("%+v", e.Robust)), inj.Events()
				}
				ref, refOut, refLog := run(nil)
				got, gotOut, gotLog := run(bufpool.New())
				if !slices.Equal(gotOut, refOut) {
					t.Fatalf("arena run %q, heap run %q", gotOut, refOut)
				}
				if !slices.Equal(gotLog, refLog) {
					t.Fatalf("fault logs differ: arena %d events, heap %d", len(gotLog), len(refLog))
				}
				paramsBitsEqual(t, flatParams(got.Executor), flatParams(ref.Executor), "arena vs heap")
				checkPasses(t, got.calls, c.cancelAt, n.decodes)

				got.Close()
				noBufferReferenced(t, got.Executor)
				ref.Close()
			})
		}
	}
}

// bnChain is convChain's first stage with a BatchNorm between the conv and
// its ReLU: the BatchNorm reads the conv's DPR stash as stored.
func bnChain(mb int) *graph.Graph {
	return normChain(mb, 64, layers.NewBatchNorm())
}

// lrnChain is bnChain with an LRN in the BatchNorm's place: the LRN reads
// X and Y whole, so both its DPR stashes are decoded into targets the
// decode window takes.
func lrnChain(mb int) *graph.Graph {
	return normChain(mb, 16, layers.NewLRN(5))
}

func normChain(mb, size int, norm layers.Op) *graph.Graph {
	g := graph.New()
	in := g.MustAdd("input", layers.NewInput(mb, 4, size, size))
	c1 := g.MustAdd("conv1", layers.NewConv2D(8, 1, 1, 0), in)
	b1 := g.MustAdd("norm1", norm, c1)
	r1 := g.MustAdd("relu1", layers.NewReLU(), b1)
	p1 := g.MustAdd("pool1", layers.NewMaxPool(4, 4, 0), r1)
	f1 := g.MustAdd("fc1", layers.NewFC(4), p1)
	g.MustAdd("loss", layers.NewSoftmaxXent(), f1)
	return g
}

// retiredDecodeTarget reports whether some stash a training Forward retires
// (every one but a sink's) is decoded whole, into a target of its own.
func retiredDecodeTarget(e *Executor) bool {
	for _, n := range e.G.Nodes {
		if f := &e.futures[n.ID]; e.assign[n.ID] != nil && f.pos >= 0 && !f.asStored && len(n.Consumers()) > 0 {
			return true
		}
	}
	return false
}

// stepLoop trains steps steps, calling Eval after every odd one, and
// cancels step cancelAt (if >= 0) between its Forward and Backward. It
// returns every loss and error count.
func stepLoop(steps, cancelAt int) func(t *testing.T, en Engine, d *Dataset) []string {
	return func(t *testing.T, en Engine, d *Dataset) []string {
		var out []string
		for i := 0; i < steps; i++ {
			x, labels := d.Batch(en.Batch())
			if i == cancelAt {
				en.SetContext(&countdownCtx{Context: context.Background(), n: 1})
			}
			loss, errs, err := en.TryStep(x, labels, 0.05)
			en.SetContext(nil)
			if (err != nil) != (i == cancelAt) {
				t.Fatalf("step %d: %v", i, err)
			}
			out = append(out, fmt.Sprintf("step %d: %x %d", i, loss, errs))
			if cancelAt < 0 && i%2 == 1 {
				loss, errs = en.Eval(x, labels)
				out = append(out, fmt.Sprintf("eval %d: %x %d", i, loss, errs))
			}
		}
		return out
	}
}

// checkPasses holds a run's calls to the arena's contract. Until the first
// whole pass of a kind (a successful step, an Eval) that kind records on the
// heap; after it, a failed step leaves the layout at some point, and every
// successful call replays its whole pass from the slab. The call after a
// cancelled step also pays, on the heap, for the decode targets the
// cancelled pass left to drain (drains), and replays its layout whole when
// there are none.
func checkPasses(t *testing.T, calls []passObs, cancelAt int, drains bool) {
	t.Helper()
	recorded := map[bool]bool{}
	fellBack, faulted := false, false
	step := -1
	for i, c := range calls {
		if !c.eval {
			step++
		}
		if !recorded[c.eval] {
			if c.hits != 0 {
				t.Errorf("call %d served %d views before its kind had a layout", i, c.hits)
			}
			recorded[c.eval] = !c.failed && cancelAt != step
			continue
		}
		faulted = faulted || (c.failed && step != cancelAt)
		switch {
		case c.failed || step == cancelAt:
			fellBack = fellBack || !c.stayedOnLayout
		case step == cancelAt+1 && !c.eval && drains:
			if c.misses == 0 {
				t.Errorf("call %d drained the cancelled pass's targets without a heap allocation", i)
			}
			fellBack = true
			fallthrough
		default:
			if !c.stayedOnLayout || c.hits == 0 || (c.misses != 0 && (step != cancelAt+1 || !drains)) {
				t.Errorf("call %d (step %d, eval %t) did not replay its layout: %+v", i, step, c.eval, c)
			}
		}
	}
	if !fellBack && ((cancelAt >= 0 && drains) || faulted) {
		t.Error("no pass left its layout")
	}
}

// noBufferReferenced fails the test unless a closed executor holds no
// per-step tensor and its arena no slab.
func noBufferReferenced(t *testing.T, e *Executor) {
	t.Helper()
	if st := e.ArenaStats(); st.HeldBytes != 0 || st.InUseBytes != 0 || st.LiveBytes != 0 {
		t.Errorf("arena after Close: %+v", st)
	}
	for _, ts := range [][]*tensor.Tensor{e.outs, e.stash, e.gradOf, e.insBuf[:cap(e.insBuf)], e.dInsBuf[:cap(e.dInsBuf)]} {
		if slices.ContainsFunc(ts, func(t *tensor.Tensor) bool { return t != nil }) {
			t.Error("a per-step tensor slice still references a tensor after Close")
		}
	}
	for i := range e.futures {
		if f := &e.futures[i]; f.src != nil || f.dst != nil {
			t.Errorf("future of %q still references a tensor after Close", f.node)
		}
	}
	for _, l := range e.arena.layouts {
		for i := 0; l != nil && i < len(l.slots); i++ {
			if l.slots[i].t.Data != nil {
				t.Error("a layout slot still views the released slab")
				return
			}
		}
	}
}

// TestArenaCatchesWriteAfterRecycle: under the race detector a region of
// the slab is poisoned from its recycle point to the next view that covers
// it, so a write through a stale view panics at the allocation that reuses
// it instead of corrupting a step.
func TestArenaCatchesWriteAfterRecycle(t *testing.T) {
	if !race.Enabled {
		t.Skip("the slab is poisoned only under the race detector")
	}
	e := NewExecutor(richNet(8), Options{Seed: 3, Pool: bufpool.New()})
	x, labels := NewDataset(4, 2, 8, 0.3, 2).Batch(8)
	e.Step(x, labels, 0.05) // records
	e.Step(x, labels, 0.05) // replays
	// A buffer recycled during the step whose region nothing live covers.
	lay := e.arena.layouts[1]
	var stale *arenaSlot
	for i := range lay.slots {
		s := &lay.slots[i]
		if !s.live && !slices.ContainsFunc(lay.slots, func(o arenaSlot) bool {
			return o.live && o.off < s.off+s.n && s.off < o.off+o.n
		}) {
			stale = s
			break
		}
	}
	if stale == nil {
		t.Fatal("every recycled region is covered by a live one")
	}
	stale.t.Data[stale.n-1] = 1 // the bug: a write after recycle
	defer func() {
		r := recover()
		if msg := fmt.Sprint(r); !strings.Contains(msg, "use after recycle") {
			t.Fatalf("recovered %v, want a use-after-recycle panic", r)
		}
	}()
	e.Step(x, labels, 0.05)
	t.Fatal("the step after a write to a recycled region did not panic")
}
