package bufpool

import "gist/internal/race"

// Arena is one owner's exact-size slab, carved into views by offsets the
// owner computed: the training executor replays a recorded step's layout in
// it (internal/train), so what the arena holds is that layout's size — the
// step's peak, give or take a map — not a sum of per-class high-water marks.
// A view of the slab counts as a hit; what the owner had to allocate on the
// heap instead (the step it records, a step that left the layout) is
// reported as a miss. Every count moves the pool's Stats too. An arena has
// one owner and is not safe for concurrent use.
type Arena struct {
	p    *Pool
	slab []float32
	st   Stats
}

// NewArena returns an empty arena accounted in p.
func (p *Pool) NewArena() *Arena { return &Arena{p: p} }

// Reserve grows the slab to at least n elements. It must not run while a
// view is taken: growing replaces the slab.
func (a *Arena) Reserve(n int) {
	if n <= len(a.slab) {
		return
	}
	a.Release()
	a.slab = make([]float32, n)
	if race.Enabled {
		fillPoison(a.slab)
	}
	a.move(int64(n)*4, 0, 0)
}

// View returns slab[off:off+n], zeroed — what tensor.New hands out — and
// counts a hit. Under the race detector it panics if any of it was written
// since it was last freed.
func (a *Arena) View(off, n int) []float32 {
	v := a.slab[off : off+n : off+n]
	if race.Enabled {
		checkPoison(v)
	}
	clear(v)
	a.st.Hits++
	a.p.hits.Add(1)
	b := int64(n) * 4
	a.move(-b, b, b)
	return v
}

// Free ends the view slab[off:off+n]. Under the race detector the region is
// poisoned until the next View that covers it.
func (a *Arena) Free(off, n int) {
	if race.Enabled {
		fillPoison(a.slab[off : off+n])
	}
	a.st.Recycles++
	a.p.recycles.Add(1)
	b := int64(n) * 4
	a.move(b, -b, -b)
}

// Miss counts a heap allocation of n elements the owner made in place of a
// view; Drop ends it. Both move only the requested live bytes.
func (a *Arena) Miss(n int) {
	a.st.Misses++
	a.p.misses.Add(1)
	a.move(0, 0, int64(n)*4)
}

// Drop ends a heap allocation Miss counted.
func (a *Arena) Drop(n int) {
	a.st.Recycles++
	a.p.recycles.Add(1)
	a.move(0, 0, -int64(n)*4)
}

// Release drops the slab, once every view is freed; a later Reserve
// allocates a new one.
func (a *Arena) Release() {
	if a.st.InUseBytes != 0 {
		panic("bufpool: arena released with views taken")
	}
	a.move(-a.st.HeldBytes, 0, 0)
	a.slab = nil
}

// Stats returns the arena's own counters: HeldBytes is the slab not in
// view, InUseBytes the views taken, LiveBytes and PeakLiveBytes the bytes
// requested (views and heap allocations alike), Hits the views served and
// Misses the heap allocations.
func (a *Arena) Stats() Stats { return a.st }

// move shifts the arena's and the pool's held, in-use and requested live
// bytes.
func (a *Arena) move(held, inUse, live int64) {
	a.st.HeldBytes += held
	a.st.InUseBytes += inUse
	a.p.heldBytes.Add(held)
	a.p.inUseBytes.Add(inUse)
	if live == 0 {
		return
	}
	a.st.LiveBytes += live
	a.st.PeakLiveBytes = max(a.st.PeakLiveBytes, a.st.LiveBytes)
	a.p.mu.Lock()
	a.p.addLive(live)
	a.p.mu.Unlock()
}
