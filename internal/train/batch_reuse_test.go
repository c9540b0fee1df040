package train

// The run loop's reused batch and the group checkpoint's one read: a
// refilled batch carries Batch's bits, a run adds no allocation per step to
// the pooled step it drives, and a replica group resumes from one read of
// its checkpoint to the weights an uninterrupted run trains.

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/layers"
	"gist/internal/networks"
	"gist/internal/race"
	"gist/internal/tensor"
)

// TestBatchIntoMatchesBatch: refilling one buffer pair draws the sequence
// of batches a loop of Batch calls draws, bit for bit.
func TestBatchIntoMatchesBatch(t *testing.T) {
	const mb = 5
	fresh, reused := NewDataset(4, 3, 6, 0.4, 9), NewDataset(4, 3, 6, 0.4, 9)
	x, labels := tensor.New(mb, 3, 6, 6), make([]int, mb)
	for b := 0; b < 20; b++ {
		wx, wl := fresh.Batch(mb)
		reused.BatchInto(x, labels)
		for i := range wl {
			if labels[i] != wl[i] {
				t.Fatalf("batch %d: label %d = %d, want %d", b, i, labels[i], wl[i])
			}
		}
		for i := range wx.Data {
			if math.Float32bits(x.Data[i]) != math.Float32bits(wx.Data[i]) {
				t.Fatalf("batch %d: x[%d] = %x, want %x", b, i, x.Data[i], wx.Data[i])
			}
		}
	}
}

// TestRunAddsNoAllocsPerStep: on a pooled executor, whose step allocates
// nothing, a run of 21 steps allocates what a run of 1 does — the loop
// refills one batch and hands the softmax the same labels slice each step.
func TestRunAddsNoAllocsPerStep(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	g := networks.TinyCNN(8, 4)
	e := NewExecutor(g, Options{
		Seed:      1,
		Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		Pool:      bufpool.New(),
	})
	d := NewDataset(4, 3, 16, 0.4, 2)
	run := func(steps int) func() {
		return func() {
			e.SetResumeStep(0)
			Run(e, d, RunConfig{Minibatch: 8, Steps: steps, LR: 0.01, ProbeEvery: math.MaxInt})
		}
	}
	run(3)() // warm the step arena
	one, many := testing.AllocsPerRun(5, run(1)), testing.AllocsPerRun(5, run(21))
	if many != one {
		t.Fatalf("a 21-step run allocates %v times, a 1-step run %v: %v per extra step",
			many, one, (many-one)/20)
	}
}

// countingReader adds the bytes read through it to *n.
type countingReader struct {
	io.ReadCloser
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	*c.n += int64(n)
	return n, err
}

// groupBitsHash hashes, FNV-1a over little-endian bits, the lead's
// parameters and batch-norm running statistics: what a checkpoint saves.
func groupBitsHash(rg *ReplicaGroup) uint64 {
	h := fnv.New64a()
	put := func(vs []float32) {
		var b [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	put(flatParams(rg.Executor()))
	for _, n := range rg.Executor().G.Nodes {
		if bn, ok := n.Op.(*layers.BatchNormOp); ok {
			put(bn.RunningMean)
			put(bn.RunningVar)
		}
	}
	return h.Sum64()
}

// TestGroupResumeReadsCheckpointOnce resumes a 2-replica group, whose
// replicas each keep batch-norm statistics, through an opener that counts
// opens and bytes read: the load opens and reads the file once, and the
// resumed group trains to the bits of an uninterrupted run. The hash was
// captured when every replica opened and parsed the file for itself.
func TestGroupResumeReadsCheckpointOnce(t *testing.T) {
	const wantHash = uint64(0xbdc55e924a45570d)
	const steps, cut, replicas = 6, 3, 2
	newGroup := func() *ReplicaGroup {
		g := bnPinNet(4, 4)
		return NewReplicaGroup(g, Options{
			Seed:      5,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
		}, ReplicaConfig{Replicas: replicas, Shards: replicas})
	}
	cfg := func(n int) RunConfig { return RunConfig{Minibatch: 4 * replicas, Steps: n, LR: 0.05} }
	newData := func() *Dataset { return NewDataset(4, 3, 15, 0.3, 8) }

	ref := newGroup()
	defer ref.Close()
	Run(ref, newData(), cfg(steps))
	want := groupBitsHash(ref)

	first := newGroup()
	Run(first, newData(), cfg(cut))
	path := filepath.Join(t.TempDir(), "group.ckpt")
	if err := first.Executor().SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	first.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	resumed := newGroup()
	defer resumed.Close()
	opens, read := 0, int64(0)
	open := openCheckpoint
	defer func() { openCheckpoint = open }()
	openCheckpoint = func(path string) (io.ReadCloser, error) {
		f, err := open(path)
		opens++
		return countingReader{f, &read}, err
	}
	if err := LoadCheckpointFile(resumed, path); err != nil {
		t.Fatal(err)
	}
	if opens != 1 || read != info.Size() {
		t.Fatalf("a %d-replica load opened the checkpoint %d times and read %d of its %d bytes, want once",
			replicas, opens, read, info.Size())
	}
	// Each replica holds its own copy of the lead's statistics.
	lead := resumed.Executor()
	for _, e := range resumed.Executors()[1:] {
		for _, n := range e.G.Nodes {
			bn, ok := n.Op.(*layers.BatchNormOp)
			if !ok {
				continue
			}
			lbn := lead.G.Nodes[n.ID].Op.(*layers.BatchNormOp)
			if &bn.RunningMean[0] == &lbn.RunningMean[0] || &bn.RunningVar[0] == &lbn.RunningVar[0] {
				t.Fatalf("%s: a replica shares the lead's running statistics", n.Name)
			}
			for i := range bn.RunningMean {
				if bn.RunningMean[i] != lbn.RunningMean[i] || bn.RunningVar[i] != lbn.RunningVar[i] {
					t.Fatalf("%s: replica statistic %d differs from the checkpoint's", n.Name, i)
				}
			}
		}
	}
	d := newData()
	d.Skip(4*replicas, cut)
	Run(resumed, d, cfg(steps))
	if got := groupBitsHash(resumed); got != want || got != wantHash {
		t.Fatalf("resumed group hash %#x, uninterrupted %#x, pinned %#x", got, want, wantHash)
	}
}
