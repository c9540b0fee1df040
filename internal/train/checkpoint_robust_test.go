package train

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gist/internal/bufpool"
	"gist/internal/faults"
	"gist/internal/networks"
)

// trainedExecutor returns a small executor with a few steps of training
// behind it, so checkpoints carry non-initial parameters.
func trainedExecutor(t *testing.T, seed uint64) *Executor {
	t.Helper()
	e := NewExecutor(smallNet(4), Options{Seed: seed})
	d := NewDataset(4, 2, 8, 0.3, seed+1)
	for i := 0; i < 3; i++ {
		x, l := d.Batch(4)
		e.Step(x, l, 0.05)
	}
	return e
}

func checkpointBytes(t *testing.T, e *Executor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointV2RoundTripAndVerify(t *testing.T) {
	e := trainedExecutor(t, 3)
	data := checkpointBytes(t, e)
	if err := VerifyCheckpoint(data); err != nil {
		t.Fatalf("fresh checkpoint fails verify: %v", err)
	}
	e2 := NewExecutor(smallNet(4), Options{Seed: 77})
	if err := e2.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, n := range e.G.Nodes {
		p1, p2 := e.Params(n), e2.Params(e2.G.Lookup(n.Name))
		for j := range p1 {
			if !p1[j].Equal(p2[j]) {
				t.Fatalf("%s param %d not restored", n.Name, j)
			}
		}
	}
}

func TestCheckpointEveryByteFlipIsDetected(t *testing.T) {
	e := trainedExecutor(t, 3)
	data := checkpointBytes(t, e)
	// Flipping any single byte must fail the CRC (or the magic/version
	// checks for the header bytes) — never load and never panic.
	stride := len(data)/97 + 1
	for off := 0; off < len(data); off += stride {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if err := VerifyCheckpoint(bad); err == nil {
			t.Fatalf("flip at offset %d passed verification", off)
		}
		e2 := NewExecutor(smallNet(4), Options{Seed: 1})
		if err := e2.LoadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at offset %d loaded", off)
		}
	}
}

func TestCheckpointTruncationIsDetected(t *testing.T) {
	e := trainedExecutor(t, 3)
	data := checkpointBytes(t, e)
	e2 := NewExecutor(smallNet(4), Options{Seed: 1})
	for _, n := range []int{0, 1, 4, 8, 12, len(data) / 2, len(data) - 1} {
		if err := e2.LoadCheckpoint(bytes.NewReader(data[:n])); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptCheckpoint", n, err)
		}
	}
}

func TestCheckpointFutureVersionRejected(t *testing.T) {
	e := trainedExecutor(t, 3)
	data := checkpointBytes(t, e)
	data[4] = 99 // version field
	// Recompute the CRC so only the version is wrong.
	fixCRC(data)
	e2 := NewExecutor(smallNet(4), Options{Seed: 1})
	if err := e2.LoadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("err = %v, want ErrCheckpointVersion", err)
	}
}

func TestCheckpointGraphMismatchLeavesExecutorUntouched(t *testing.T) {
	e := trainedExecutor(t, 3)
	data := checkpointBytes(t, e)
	// A different architecture must reject the checkpoint before mutating
	// anything.
	other := NewExecutor(bnNet(4), Options{Seed: 5})
	before := paramsOf(other)
	if err := other.LoadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if got := paramsOf(other); !equalParams(before, got) {
		t.Fatal("failed load mutated executor state")
	}
}

func equalParams(a, b map[string][][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv := b[k]
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if len(av[i]) != len(bv[i]) {
				return false
			}
			for j := range av[i] {
				if av[i][j] != bv[i][j] {
					return false
				}
			}
		}
	}
	return true
}

// fixCRC rewrites the CRC trailer to match the (possibly modified) body.
func fixCRC(data []byte) {
	crc := crc32.ChecksumIEEE(data[:len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
}

func TestAtomicSaveTornWriteKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")

	e := trainedExecutor(t, 3)
	if err := e.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	goodParams := paramsOf(e)

	// Train further, then tear the next save mid-stream.
	d := NewDataset(4, 2, 8, 0.3, 50)
	x, l := d.Batch(4)
	e.Step(x, l, 0.05)
	inj := faults.New(faults.Config{Seed: 1, CheckpointTruncateAt: 64})
	err := e.SaveCheckpointFileVia(path, inj.WrapWriter)
	if err == nil {
		t.Fatal("torn write must not be promoted")
	}
	if !strings.Contains(err.Error(), "refusing to promote") {
		t.Fatalf("unexpected error: %v", err)
	}
	if inj.Counts()[faults.CheckpointTruncate] != 1 {
		t.Fatal("injector did not record the tear")
	}

	// The previous checkpoint must be fully intact and loadable.
	e2 := NewExecutor(smallNet(4), Options{Seed: 9})
	if err := e2.LoadCheckpointFile(path); err != nil {
		t.Fatalf("previous checkpoint damaged by torn write: %v", err)
	}
	if got := paramsOf(e2); !equalParams(goodParams, got) {
		t.Fatal("previous checkpoint content changed")
	}
	// No temp-file litter.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("leftover temp files: %v", ents)
	}
}

func TestAtomicSaveFlippedByteKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	e := trainedExecutor(t, 3)
	if err := e.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 1, CheckpointFlipByte: 40})
	if err := e.SaveCheckpointFileVia(path, inj.WrapWriter); err == nil {
		t.Fatal("corrupted stream must not be promoted")
	}
	e2 := NewExecutor(smallNet(4), Options{Seed: 9})
	if err := e2.LoadCheckpointFile(path); err != nil {
		t.Fatalf("previous checkpoint damaged: %v", err)
	}
}

// FuzzReadCheckpoint asserts the parser's contract: arbitrary bytes never
// panic the loader — every malformed input maps to a typed error.
func FuzzReadCheckpoint(f *testing.F) {
	e := NewExecutor(smallNet(4), Options{Seed: 3})
	var buf bytes.Buffer
	if err := e.SaveCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x53, 0x49, 0x67}) // retired v1 magic: rejected as corrupt
	f.Add([]byte{0x55, 0x53, 0x49, 0x67, 2, 0, 0, 0})
	f.Add(valid[:len(valid)/2])
	mangled := append([]byte(nil), valid...)
	mangled[20] ^= 0xff
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewExecutor(smallNet(4), Options{Seed: 3})
		err := e.LoadCheckpoint(bytes.NewReader(data))
		if err != nil &&
			!errors.Is(err, ErrCorruptCheckpoint) &&
			!errors.Is(err, ErrCheckpointVersion) &&
			!errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("untyped load error: %v", err)
		}
	})
}

// TestCheckpointBytesPinned pins SaveCheckpoint's v3 bytes across commits:
// the round-trip tests compare a save with a load of the same binary, so a
// writer that moved a field, or saved momenta out of node order, would
// pass them. The constants are FNV-1a hashes of the whole stream after 3
// steps at seed 1, captured before the trainable state moved into flats:
// one graph with batch-norm statistics, and a two-replica group's lead
// executor.
func TestCheckpointBytesPinned(t *testing.T) {
	hashOf := func(e *Executor) uint64 {
		h := fnv.New64a()
		if err := e.SaveCheckpoint(h); err != nil {
			t.Fatal(err)
		}
		return h.Sum64()
	}
	t.Run("resnet-bn", func(t *testing.T) {
		e := NewExecutor(networks.ResNetCIFAR(2, 8), Options{Seed: 1})
		d := NewDataset(10, 3, 32, 0.4, 2)
		for i := 0; i < 3; i++ {
			x, l := d.Batch(2)
			e.Step(x, l, 0.05)
		}
		if got, want := hashOf(e), uint64(0xef7b73cd705bc066); got != want {
			t.Fatalf("checkpoint hash %#016x, pinned %#016x", got, want)
		}
	})
	t.Run("replica-lead", func(t *testing.T) {
		rg := NewReplicaGroup(networks.TinyCNN(2, 4), Options{Seed: 1, Pool: bufpool.New()},
			ReplicaConfig{Replicas: 2})
		defer rg.Close()
		d := NewDataset(4, 3, 16, 0.4, 2)
		for i := 0; i < 3; i++ {
			x, l := d.Batch(rg.Batch())
			rg.Step(x, l, 0.05)
		}
		if got, want := hashOf(rg.Executor()), uint64(0x0dd7c19bebe970e7); got != want {
			t.Fatalf("checkpoint hash %#016x, pinned %#016x", got, want)
		}
	})
}
