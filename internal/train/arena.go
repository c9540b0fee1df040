package train

import (
	"gist/internal/bufpool"
	"gist/internal/liveness"
	"gist/internal/memplan"
	"gist/internal/tensor"
)

// stepArena serves a pooled executor's FP32 maps — activations, gradients,
// decode targets — from one slab laid out once.
//
// Every alloc and recycle runs on the executor's goroutine at a fixed
// program point, so a pass (one Forward to the next: a training step, or an
// inference Forward) makes the same sequence of events every time. The
// first whole pass of each kind runs on the heap and records every buffer's
// size and the events that allocate and recycle it; what is still live when
// the pass completes ends there. memplan.Pack turns those lifetimes into
// offsets, and every later pass of that kind replays them: its k-th event
// must be the recording's k-th, and an alloc is served as a zeroed view of
// the slab. From the first event that differs (a fault path, a failed or
// cancelled step) the rest of the pass allocates from the heap and the
// slots it still holds stay taken until it ends; the next pass replays
// again. Both kinds' layouts share the slab, sized to the larger.
type stepArena struct {
	mem     *bufpool.Arena
	layouts [2]*arenaLayout // by pass kind: inference, training

	// The pass in flight: its kind, its layout (nil while it records),
	// whether every event so far matched that layout, and how many events
	// it has replayed or recorded. heap maps the tensors it served from the
	// heap and still holds to their index in rec.
	kind     int
	lay      *arenaLayout
	onLayout bool
	k        int
	rec      arenaRecording
	heap     map[*tensor.Tensor]int
}

// arenaLayout is one recorded pass, packed: its events (≥ 0: alloc of slot
// i; < 0: recycle of slot ^i), its slots, and the slab size they need.
type arenaLayout struct {
	events []int
	slots  []arenaSlot
	elems  int
}

// arenaSlot is one buffer of a layout: its region of the slab and the
// tensor header every replay hands out for it.
type arenaSlot struct {
	tensorHeader
	off, n int
	live   bool
}

// tensorHeader is a tensor with room for its shape, so an NCHW shape needs
// no allocation of its own.
type tensorHeader struct {
	t    tensor.Tensor
	dims [4]int
}

// arenaRecording is a pass being recorded: its events, and each buffer's
// lifetime in event indices (End -1 while live).
type arenaRecording struct {
	on     bool
	events []int
	bufs   []liveness.Buffer
}

func newStepArena(p *bufpool.Pool) *stepArena {
	return &stepArena{mem: p.NewArena(), heap: map[*tensor.Tensor]int{}}
}

// begin ends the pass in flight and opens one of the given kind: it replays
// the kind's layout if there is one, else records.
func (a *stepArena) begin(training bool) {
	a.end()
	a.kind, a.k = 0, 0
	if training {
		a.kind = 1
	}
	a.lay = a.layouts[a.kind]
	a.onLayout = a.lay != nil
	if a.onLayout {
		// The first replay after a training recording, or after Close
		// released the slab: the previous pass's heap buffers are gone.
		a.mem.Reserve(a.slabElems())
		return
	}
	a.rec = arenaRecording{on: true, events: a.rec.events[:0], bufs: a.rec.bufs[:0]}
}

// end closes the pass: whatever it still holds is released (the step's
// leftovers, or what a failed step stranded), and an incomplete recording
// is dropped.
func (a *stepArena) end() {
	if a.lay != nil {
		for i := range a.lay.slots {
			if s := &a.lay.slots[i]; s.live {
				s.live = false
				a.mem.Free(s.off, s.n)
			}
		}
	}
	for t := range a.heap {
		a.dropHeap(t)
	}
	clear(a.heap)
	a.lay, a.onLayout, a.rec.on = nil, false, false
}

// alloc returns a zeroed tensor of the given shape: the pass's next slot
// while it replays its layout, else a heap tensor.
func (a *stepArena) alloc(shape tensor.Shape) *tensor.Tensor {
	n := shape.NumElements()
	if a.onLayout && a.k < len(a.lay.events) && a.lay.events[a.k] >= 0 {
		if s := &a.lay.slots[a.lay.events[a.k]]; s.n == n {
			s.t.Data = a.mem.View(s.off, n)
			s.t.Shape = append(s.t.Shape[:0], shape...)
			s.live = true
			a.k++
			return &s.t
		}
	}
	a.onLayout = false
	a.mem.Miss(n)
	h := &tensorHeader{}
	t := &h.t
	t.Shape, t.Data = append(h.dims[:0], shape...), make([]float32, n)
	a.heap[t] = len(a.rec.bufs)
	if a.rec.on {
		a.rec.bufs = append(a.rec.bufs, liveness.Buffer{Bytes: int64(n) * 4, Start: a.k, End: -1})
		a.rec.events = append(a.rec.events, len(a.rec.bufs)-1)
		a.k++
	}
	return t
}

// recycle ends t's use. Only the recorded next event, or a heap tensor the
// pass holds, is acted on; anything else — nil, an alias already recycled,
// a parameter, a slot recycled out of the recorded order, which stays taken
// until the pass ends — is ignored, so recycle points can be written against
// logical lifetimes without tracking aliasing.
func (a *stepArena) recycle(t *tensor.Tensor) {
	if a.onLayout && a.k < len(a.lay.events) {
		if ev := a.lay.events[a.k]; ev < 0 {
			if s := &a.lay.slots[^ev]; t == &s.t && s.live {
				s.live = false
				a.mem.Free(s.off, s.n)
				a.k++
				return
			}
		}
	}
	i, ok := a.heap[t]
	if !ok {
		return
	}
	delete(a.heap, t)
	a.dropHeap(t)
	if a.rec.on {
		a.rec.bufs[i].End = a.k
		a.rec.events = append(a.rec.events, ^i)
		a.k++
	}
}

// dropHeap ends a heap tensor's use and lets its data go: the executor keeps
// references to a pass's tensors past their last use (outs, the futures'
// sources and targets), and a recorded step must hold no more than a
// replayed one.
func (a *stepArena) dropHeap(t *tensor.Tensor) {
	a.mem.Drop(len(t.Data))
	t.Data = nil
}

// complete marks the pass in flight as a whole one of its kind: a recording
// is packed into the kind's layout, with what is still live ending now, and
// the rest of the pass stays on the heap. A training recording leaves the
// slab to the next begin, so the recorded step never holds the slab and its
// own leftovers at once; an inference one reserves it now, so the Eval
// after it allocates nothing.
func (a *stepArena) complete() {
	if !a.rec.on {
		return
	}
	a.rec.on = false
	bufs := make([]*liveness.Buffer, len(a.rec.bufs))
	for i := range a.rec.bufs {
		bufs[i] = &a.rec.bufs[i]
		if bufs[i].End < 0 {
			bufs[i].End = a.k
		}
	}
	offs, size := memplan.Pack(bufs)
	lay := &arenaLayout{events: append([]int(nil), a.rec.events...), slots: make([]arenaSlot, len(offs)), elems: int(size / 4)}
	for i, b := range bufs {
		s := &lay.slots[i]
		s.off, s.n = int(offs[i]/4), int(b.Bytes/4)
		s.t.Shape = s.dims[:0]
	}
	a.layouts[a.kind] = lay
	if a.kind == 0 {
		a.mem.Reserve(a.slabElems())
	}
}

// slabElems is the slab size every layout fits in.
func (a *stepArena) slabElems() int {
	n := 0
	for _, l := range a.layouts {
		if l != nil {
			n = max(n, l.elems)
		}
	}
	return n
}

// release ends the pass and drops the slab. The layouts are kept, so the
// next pass replays into a new slab, but their views are let go.
func (a *stepArena) release() {
	a.end()
	for _, l := range a.layouts {
		for i := 0; l != nil && i < len(l.slots); i++ {
			l.slots[i].t.Data = nil
		}
	}
	a.mem.Release()
}
