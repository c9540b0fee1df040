// Package memplan implements the memory allocation strategies the paper
// evaluates: the CNTK-style static allocator that shares one region among
// buffers whose lifetimes do not overlap (Section IV-C), and a dynamic
// allocator model that allocates each buffer exactly for its lifetime and
// reports the peak (Section V-H). Gist's encodings shorten the lifetimes of
// FP32 stashed feature maps, which is precisely what creates the additional
// sharing opportunities both allocators exploit.
package memplan

import (
	"sort"
	"strings"

	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/liveness"
	"gist/internal/telemetry"
)

// Group is one shared memory region of the static plan: a set of buffers
// with pairwise disjoint lifetimes. Its size is the largest member's size.
type Group struct {
	Buffers []*liveness.Buffer
	Bytes   int64
}

// dominantClass returns the class of the group's largest buffer, which is
// how a shared region is attributed in breakdown reports.
func (g *Group) dominantClass() graph.BufferClass {
	best := g.Buffers[0]
	for _, b := range g.Buffers[1:] {
		if b.Bytes > best.Bytes {
			best = b
		}
	}
	return best.Class
}

// Plan is the result of static allocation.
type Plan struct {
	Groups []*Group
	// TotalBytes is the footprint: the sum of group sizes.
	TotalBytes int64
	// ByClass attributes each group's bytes to its dominant class.
	ByClass map[graph.BufferClass]int64
}

// PlanStatic runs the CNTK memory-sharing strategy: sort buffers by size
// descending, then place each buffer into the first existing group none of
// whose members' lifetimes overlap it (large buffers thereby share regions
// with other large buffers). Buffers marked NoShare each get a dedicated
// region and accept no tenants — the paper's investigation baseline uses
// this for stashed feature maps.
func PlanStatic(bufs []*liveness.Buffer) *Plan {
	sorted := make([]*liveness.Buffer, len(bufs))
	copy(sorted, bufs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Bytes > sorted[j].Bytes
	})

	var groups []*Group
	for _, b := range sorted {
		if b.Bytes == 0 {
			continue
		}
		placed := false
		if !b.NoShare {
			for _, g := range groups {
				if g.Buffers[0].NoShare {
					continue
				}
				ok := true
				for _, m := range g.Buffers {
					if m.Overlaps(b) {
						ok = false
						break
					}
				}
				if ok {
					g.Buffers = append(g.Buffers, b)
					if b.Bytes > g.Bytes {
						g.Bytes = b.Bytes
					}
					placed = true
					break
				}
			}
		}
		if !placed {
			groups = append(groups, &Group{Buffers: []*liveness.Buffer{b}, Bytes: b.Bytes})
		}
	}

	p := &Plan{Groups: groups, ByClass: map[graph.BufferClass]int64{}}
	for _, g := range groups {
		p.TotalBytes += g.Bytes
		p.ByClass[g.dominantClass()] += g.Bytes
	}
	return p
}

// PlanStaticUnsorted is the ablation of the CNTK allocator's size-sorting
// heuristic (Section IV-C: it "first sorts the data structures on the
// basis of size... so that large data structures can share the same memory
// space"): the same greedy grouping, but in buffer insertion order.
// Without the sort, a large buffer arriving late opens a new full-size
// region instead of reusing one, so this plan is never smaller and usually
// larger.
func PlanStaticUnsorted(bufs []*liveness.Buffer) *Plan {
	var groups []*Group
	for _, b := range bufs {
		if b.Bytes == 0 {
			continue
		}
		placed := false
		if !b.NoShare {
			for _, g := range groups {
				if g.Buffers[0].NoShare {
					continue
				}
				ok := true
				for _, m := range g.Buffers {
					if m.Overlaps(b) {
						ok = false
						break
					}
				}
				if ok {
					g.Buffers = append(g.Buffers, b)
					if b.Bytes > g.Bytes {
						g.Bytes = b.Bytes
					}
					placed = true
					break
				}
			}
		}
		if !placed {
			groups = append(groups, &Group{Buffers: []*liveness.Buffer{b}, Bytes: b.Bytes})
		}
	}
	p := &Plan{Groups: groups, ByClass: map[graph.BufferClass]int64{}}
	for _, g := range groups {
		p.TotalBytes += g.Bytes
		p.ByClass[g.dominantClass()] += g.Bytes
	}
	return p
}

// PlanDynamic models perfectly timed dynamic allocation: each buffer is
// resident exactly during its lifetime, and the footprint is the peak sum
// of live bytes over the timeline.
func PlanDynamic(bufs []*liveness.Buffer) int64 {
	type event struct {
		t     int
		delta int64
	}
	events := make([]event, 0, 2*len(bufs))
	for _, b := range bufs {
		events = append(events, event{b.Start, b.Bytes})
		events = append(events, event{b.End + 1, -b.Bytes})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		// Frees before allocations at the same step: a buffer ending at
		// step t-1 and one starting at t never coexist.
		return events[i].delta < events[j].delta
	})
	var cur, peak int64
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Validate checks the static plan's core invariant: within every group, no
// two buffers' lifetimes overlap. It returns the first violating pair.
func (p *Plan) Validate() (a, b *liveness.Buffer, ok bool) {
	for _, g := range p.Groups {
		for i := 0; i < len(g.Buffers); i++ {
			for j := i + 1; j < len(g.Buffers); j++ {
				if g.Buffers[i].Overlaps(g.Buffers[j]) {
					return g.Buffers[i], g.Buffers[j], false
				}
			}
		}
	}
	return nil, nil, true
}

// RecordTelemetry publishes the plan's predicted footprint into the sink as
// plan.<prefix>.* gauges (total bytes, group count, per-class bytes), so a
// run's snapshot can set the planner's static prediction against the
// executor's observed peak (mem.peak_held_bytes). Nil plan or sink no-ops.
func (p *Plan) RecordTelemetry(s *telemetry.Sink, prefix string) {
	if p == nil || s == nil {
		return
	}
	s.Gauge("plan." + prefix + ".total_bytes").Set(p.TotalBytes)
	s.Gauge("plan." + prefix + ".groups").Set(int64(len(p.Groups)))
	for cls, b := range p.ByClass {
		name := strings.ReplaceAll(cls.String(), " ", "_")
		s.Gauge("plan." + prefix + "." + name + "_bytes").Set(b)
	}
}

// RecordEncodingTelemetry publishes the analysis's predicted per-technique
// encoded footprint as plan.<prefix>.encoded.<tech>_bytes gauges (plus a
// stash count per technique), the planning-side half of the predicted-vs-
// observed reconciliation: the executor's stash.<tech>.held_bytes counters
// record what each technique actually produced, so a snapshot sets the
// planner's sparsity-model prediction directly against runtime reality.
// Nil analysis or sink no-ops.
func RecordEncodingTelemetry(s *telemetry.Sink, prefix string, a *encoding.Analysis) {
	if a == nil || s == nil {
		return
	}
	bytes := map[encoding.Technique]int64{}
	count := map[encoding.Technique]int64{}
	for _, as := range a.ByNode {
		bytes[as.Tech] += as.EncodedBytes
		count[as.Tech]++
	}
	for tech, b := range bytes {
		name := tech.String()
		s.Gauge("plan." + prefix + ".encoded." + name + "_bytes").Set(b)
		s.Gauge("plan." + prefix + ".encoded." + name + "_stashes").Set(count[tech])
	}
}

// MFR is the paper's comparison metric: baseline footprint over encoded
// footprint.
func MFR(baseline, encoded int64) float64 {
	if encoded == 0 {
		return 0
	}
	return float64(baseline) / float64(encoded)
}

// PooledBuffers selects the buffers that are float32 tensors drawn from the
// runtime buffer pool — immediate and stashed feature maps, decoded staging
// buffers and gradient maps. Encoded payloads are excluded: they live in
// bit-packed word arrays, not pooled tensors. PlanDynamic over the result is
// what bufpool's PeakLiveBytes measures.
func PooledBuffers(bufs []*liveness.Buffer) []*liveness.Buffer {
	var pooled []*liveness.Buffer
	for _, b := range bufs {
		switch b.Class {
		case graph.ClassImmediateFmap, graph.ClassStashedFmap,
			graph.ClassDecoded, graph.ClassGradientMap:
			pooled = append(pooled, b)
		}
	}
	return pooled
}

// PoolWarmSet maps the liveness analysis onto the runtime buffer pool: it
// returns the element count of every float32 tensor the pooled executor
// will draw during one training step (PooledBuffers). Feeding the result to
// bufpool's Prewarm puts one buffer of each size class on its free list
// ahead of the first step, so steady-state recycling starts at step one
// instead of after a warm-up of allocation misses.
func PoolWarmSet(bufs []*liveness.Buffer) []int {
	var elems []int
	for _, b := range PooledBuffers(bufs) {
		if b.Bytes > 0 {
			elems = append(elems, int(b.Bytes/4))
		}
	}
	return elems
}
