// Package reduce implements the deterministic gradient merge of the
// data-parallel replica engine. Floating-point addition is not associative,
// so "sum the shard gradients" is only reproducible if the summation order
// is pinned; this package pins it with a pairwise tree whose shape depends
// only on the number of shards — never on how many replicas produced them,
// how many pool workers execute the adds, or in what order those workers
// are scheduled. Shard s always meets shard s+stride at level log2(stride),
// so the merged value of every element is the same bit pattern at every
// replica count and worker count. Parallelism comes from chunking each
// pairwise add over disjoint element ranges on the shared worker pool,
// which cannot change any element's accumulation order.
package reduce

import (
	"errors"
	"fmt"

	"gist/internal/parallel"
)

// DefaultChunkElems is the per-task chunk size of the pairwise adds. It
// mirrors the codec's chunking: big enough to amortize scheduling, small
// enough that a few shards of a small model still fan out.
const DefaultChunkElems = 32 << 10

// ErrNoShards reports a merge of an empty shard set.
var ErrNoShards = errors.New("reduce: no shards to merge")

// Merger merges shard gradient vectors in a fixed pairwise tree order.
// Construct one per replica group and reuse it every step: the chunk
// bodies are method values bound once, so the steady-state merge allocates
// nothing. A Merger is not safe for concurrent Merge calls; each group
// owns one.
type Merger struct {
	p     *parallel.Pool
	chunk int

	// Per-Merge state read by the bound chunk workers.
	shards  [][]float32
	stride  int
	nChunks int
	scale   float32

	pairFn  parallel.Func
	scaleFn parallel.Func
}

// NewMerger returns a merger that runs its chunked adds on the given pool
// (nil = serial) with the given chunk size (<=0 selects the default).
func NewMerger(p *parallel.Pool, chunkElems int) *Merger {
	if chunkElems <= 0 {
		chunkElems = DefaultChunkElems
	}
	m := &Merger{p: p, chunk: chunkElems}
	m.pairFn = m.addPairChunk
	m.scaleFn = m.scaleChunk
	return m
}

// Merge folds shards[1:] into shards[0] with the canonical tree order and
// then scales the result by scale (1/shardCount for a mean gradient; 1 is
// skipped). Every shard must have the same length. On return shards[0]
// holds the merged vector; the other shards hold partial sums and are dead
// until the caller next writes them. NaN and Inf values propagate through
// the adds exactly as a serial sum in tree order would propagate them.
func (m *Merger) Merge(shards [][]float32, scale float32) error {
	if len(shards) == 0 {
		return ErrNoShards
	}
	n := len(shards[0])
	for i, s := range shards {
		if len(s) != n {
			return fmt.Errorf("reduce: shard %d has %d elements, want %d", i, len(s), n)
		}
	}
	m.shards = shards
	m.nChunks = (n + m.chunk - 1) / m.chunk
	if m.nChunks == 0 {
		m.nChunks = 1
	}
	// Levels are sequential barriers; pairs within a level touch disjoint
	// destinations, so their chunks can run in any order on any worker.
	for stride := 1; stride < len(shards); stride *= 2 {
		m.stride = stride
		pairs := 0
		for i := 0; i+stride < len(shards); i += 2 * stride {
			pairs++
		}
		m.p.ForEach(pairs*m.nChunks, m.pairFn)
	}
	if scale != 1 {
		m.scale = scale
		m.p.ForEach(m.nChunks, m.scaleFn)
	}
	m.shards = nil
	return nil
}

// span returns chunk c's element range.
func (m *Merger) span(c int) (lo, hi int) {
	lo = c * m.chunk
	hi = lo + m.chunk
	if n := len(m.shards[0]); hi > n {
		hi = n
	}
	return lo, hi
}

// addPairChunk is one chunk of one pairwise add at the current stride.
func (m *Merger) addPairChunk(i int) {
	pair, c := i/m.nChunks, i%m.nChunks
	dst := m.shards[2*m.stride*pair]
	src := m.shards[2*m.stride*pair+m.stride]
	lo, hi := m.span(c)
	dst = dst[lo:hi]
	src = src[lo:hi]
	for k := range dst {
		dst[k] += src[k]
	}
}

// scaleChunk is one chunk of the final mean scaling on shards[0].
func (m *Merger) scaleChunk(c int) {
	lo, hi := m.span(c)
	dst := m.shards[0][lo:hi]
	for k := range dst {
		dst[k] *= m.scale
	}
}

// Tree is the convenience form of Merger for one-shot merges (tests, fuzz
// targets): it merges shards into shards[0] in the canonical tree order and
// scales the result.
func Tree(p *parallel.Pool, shards [][]float32, scale float32, chunkElems int) error {
	return NewMerger(p, chunkElems).Merge(shards, scale)
}
