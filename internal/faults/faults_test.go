package faults

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector must be disabled")
	}
	in.BeginStep(1)
	var k Key
	if err := in.FailEncode(k, "x"); err != nil {
		t.Fatalf("nil FailEncode: %v", err)
	}
	if err := in.FailDecode(k, "x"); err != nil {
		t.Fatalf("nil FailDecode: %v", err)
	}
	if err := in.Alloc(k, "x", 1<<30); err != nil {
		t.Fatalf("nil Alloc: %v", err)
	}
	if in.CorruptStash(k, "x", nil) {
		t.Fatal("nil CorruptStash must not corrupt")
	}
	if f := in.PlanSpillPage(k, "x", 512); f != (PageFault{}) {
		t.Fatalf("nil PlanSpillPage = %+v", f)
	}
	if got := in.Events(); got != nil {
		t.Fatalf("nil Events = %v", got)
	}
	var buf bytes.Buffer
	if w := in.WrapWriter(&buf); w != &buf {
		t.Fatal("nil WrapWriter must return the writer unchanged")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 1})
	if in.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for i := 0; i < 100; i++ {
		k := Key{Step: 1, Attempt: i}
		if in.FailEncode(k, "x") != nil || in.FailDecode(k, "x") != nil || in.Alloc(k, "x", 1<<40) != nil {
			t.Fatal("zero config injected a failure")
		}
	}
	if len(in.Events()) != 0 {
		t.Fatal("zero config logged events")
	}
}

// drive runs a fixed fault-rolling sequence against an injector and
// returns its event log.
func drive(in *Injector) []Event {
	s := sealedStash(encoding.DPR, floatenc.FP16, 256, 0)
	for step := 1; step <= 20; step++ {
		in.BeginStep(step)
		for i := 0; i < 5; i++ {
			k := Key{Step: step, Attempt: i}
			in.FailEncode(k, "n")
			in.Alloc(k, "n", 100)
			in.FailDecode(k, "n")
			in.CorruptStash(k, "n", s)
		}
	}
	return in.Events()
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 7, BitFlipRate: 0.1, EncodeFailRate: 0.05,
		DecodeFailRate: 0.05, AllocBudgetBytes: 350, AllocFailures: 3}
	a := drive(New(cfg))
	b := drive(New(cfg))
	if len(a) == 0 {
		t.Fatal("expected some injected faults")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different logs:\n%v\n%v", a, b)
	}
	c := drive(New(Config{Seed: 8, BitFlipRate: 0.1, EncodeFailRate: 0.05,
		DecodeFailRate: 0.05, AllocBudgetBytes: 350, AllocFailures: 3}))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical logs")
	}
}

// sealedStash builds and seals one encoded stash of the given technique
// over n elements with the given zero fraction.
func sealedStash(tech encoding.Technique, f floatenc.Format, n int, zeroFrac float64) *encoding.EncodedStash {
	x := tensor.New(n)
	r := tensor.NewRNG(11)
	for i := range x.Data {
		if r.Float64() >= zeroFrac {
			x.Data[i] = r.Float32() + 0.25
		}
	}
	var c encoding.Codec
	e := &encoding.EncodedStash{}
	if err := c.EncodeStashInto(e, &encoding.Assignment{Tech: tech, Format: f}, x); err != nil {
		panic(err)
	}
	c.Seal(e)
	return e
}

func TestEveryCorruptionIsDetectedByCRC(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *encoding.EncodedStash
	}{
		{"binarize", func() *encoding.EncodedStash {
			return sealedStash(encoding.Binarize, floatenc.FP32, 512, 0.5)
		}},
		{"zvc", func() *encoding.EncodedStash {
			return sealedStash(encoding.ZVC, floatenc.FP32, 512, 0.9)
		}},
		{"dpr", func() *encoding.EncodedStash {
			return sealedStash(encoding.DPR, floatenc.FP16, 512, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := New(Config{Seed: 3, BitFlipRate: 1})
			in.BeginStep(1)
			for trial := 0; trial < 50; trial++ {
				s := tc.mk()
				if !in.CorruptStash(Key{Step: 1, Attempt: trial}, "n", s) {
					t.Fatal("rate-1 injector did not corrupt")
				}
				var c encoding.Codec
				if err := c.DecodeInto(tensor.New(s.Shape...), s); !errors.Is(err, encoding.ErrCorruptStash) {
					t.Fatalf("trial %d: corrupted stash decoded without ErrCorruptStash: %v", trial, err)
				}
			}
			if got := in.Counts()[BitFlip]; got != 50 {
				t.Fatalf("BitFlip count = %d, want 50", got)
			}
		})
	}
}

func TestAllocBudgetIsTransient(t *testing.T) {
	in := New(Config{Seed: 1, AllocBudgetBytes: 100, AllocFailures: 2})
	var k Key
	in.BeginStep(1)
	if err := in.Alloc(k, "a", 80); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := in.Alloc(k, "b", 80); !errors.Is(err, ErrInjectedAlloc) {
		t.Fatalf("over budget: %v, want ErrInjectedAlloc", err)
	}
	in.BeginStep(2) // retry: accounting resets, one failure left
	in.Alloc(k, "a", 80)
	if err := in.Alloc(k, "b", 80); !errors.Is(err, ErrInjected) {
		t.Fatalf("second failure: %v", err)
	}
	in.BeginStep(3) // pressure cleared
	in.Alloc(k, "a", 80)
	if err := in.Alloc(k, "b", 80); err != nil {
		t.Fatalf("pressure should have cleared: %v", err)
	}
	if got := in.Counts()[AllocFail]; got != 2 {
		t.Fatalf("AllocFail count = %d, want 2", got)
	}
}

func TestWrapWriterTruncates(t *testing.T) {
	in := New(Config{Seed: 1, CheckpointTruncateAt: 10})
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)
	payload := []byte("0123456789abcdef")
	n, err := w.Write(payload[:8])
	if err != nil || n != 8 {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	// Crosses the tear: reports full success, writes only up to offset 10.
	n, err = w.Write(payload[8:])
	if err != nil || n != 8 {
		t.Fatalf("write 2 must look successful (torn write): n=%d err=%v", n, err)
	}
	if got := buf.String(); got != "0123456789" {
		t.Fatalf("stream = %q, want first 10 bytes only", got)
	}
	if _, err := w.Write([]byte("zz")); err != nil {
		t.Fatalf("write past tear: %v", err)
	}
	if buf.Len() != 10 {
		t.Fatal("bytes leaked past the tear")
	}
	if got := in.Counts()[CheckpointTruncate]; got != 1 {
		t.Fatalf("CheckpointTruncate count = %d, want 1", got)
	}
}

func TestWrapWriterFlipsByte(t *testing.T) {
	in := New(Config{Seed: 1, CheckpointFlipByte: 5})
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)
	payload := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := w.Write(payload[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload[4:]); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3, 4, 5 ^ 0xff, 6, 7}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream = %v, want %v", buf.Bytes(), want)
	}
	// The caller's slice must not be mutated.
	if payload[5] != 5 {
		t.Fatal("WrapWriter mutated the caller's buffer")
	}
	if got := in.Counts()[CheckpointCorrupt]; got != 1 {
		t.Fatalf("CheckpointCorrupt count = %d, want 1", got)
	}
}

func TestEventsCarryStepAndNode(t *testing.T) {
	in := New(Config{Seed: 1, EncodeFailRate: 1})
	if err := in.FailEncode(Key{Step: 42, Shard: 3, Attempt: 2}, "relu3"); !errors.Is(err, ErrInjectedEncode) {
		t.Fatalf("err = %v", err)
	}
	evs := in.Events()
	if len(evs) != 1 || evs[0].Step != 42 || evs[0].Shard != 3 || evs[0].Attempt != 2 ||
		evs[0].Node != "relu3" || evs[0].Kind != EncodeFail {
		t.Fatalf("event = %+v", evs)
	}
	if evs[0].Kind.String() != "encode-fail" {
		t.Fatalf("kind string = %q", evs[0].Kind)
	}
}

// TestPlanSpillPagePinned pins two read-side page faults by seed, node and
// page length, with the log text TamperSpillPage wrote for them when it
// tampered a whole page buffer — the same draws in the same order — and
// what their plans do to the bytes as they stream past.
func TestPlanSpillPagePinned(t *testing.T) {
	in := New(Config{Seed: 7, SpillReadCorruptRate: 0.5, SpillShortReadRate: 0.5})
	const n = 4321
	short := in.PlanSpillPage(Key{Step: 0}, "relu2", n)
	corrupt := in.PlanSpillPage(Key{Step: 3}, "relu2", n)
	none := in.PlanSpillPage(Key{Step: 0}, "conv1", n)
	if want := (PageFault{Cut: true, At: 1831}); short != want {
		t.Errorf("step 0 relu2: %+v, want %+v", short, want)
	}
	if want := (PageFault{Flip: true, At: 2070}); corrupt != want {
		t.Errorf("step 3 relu2: %+v, want %+v", corrupt, want)
	}
	if none != (PageFault{}) {
		t.Errorf("step 0 conv1: %+v, want no fault", none)
	}
	want := []string{
		"{Kind:spill-short-read Key:{Step:0 Shard:0 Attempt:0} Node:relu2 Detail:truncated page to 1831 of 4321 bytes}",
		"{Kind:spill-read-corrupt Key:{Step:3 Shard:0 Attempt:0} Node:relu2 Detail:flipped byte at page offset 2070}",
	}
	var got []string
	for _, ev := range in.Events() {
		got = append(got, fmt.Sprintf("%+v", ev))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("log %q, want %q", got, want)
	}
	// Streamed in 1000-byte reads, the flip lands in the third and the cut
	// ends the page inside the second.
	page := make([]byte, n)
	for off := 0; off < n; off += 1000 {
		b := page[off:min(off+1000, n)]
		if k := corrupt.Apply(b, off); k != len(b) {
			t.Fatalf("a flip cut the read at %d to %d bytes", off, k)
		}
		wantKeep := min(max(1831-off, 0), len(b))
		if k := short.Apply(b, off); k != wantKeep {
			t.Fatalf("the cut kept %d bytes of the read at %d, want %d", k, off, wantKeep)
		}
		if k := none.Apply(b, off); k != len(b) {
			t.Fatalf("no fault cut the read at %d to %d bytes", off, k)
		}
	}
	for i, b := range page {
		if flipped := i == 2070; (b == 0xff) != flipped {
			t.Fatalf("byte %d reads %#x after the stream", i, b)
		}
	}
	if (PageFault{}) != New(Config{Seed: 7, SpillReadCorruptRate: 1}).PlanSpillPage(Key{}, "x", 0) {
		t.Fatal("an empty page planned a fault")
	}
}

// rollAll rolls every keyed die of one stash: encode, decode, a bit flip on
// a fresh sealed container, a spill write and a read-side page tamper on a
// fresh page.
func rollAll(in *Injector, k Key, node string) {
	in.FailEncode(k, node)
	in.FailDecode(k, node)
	in.CorruptStash(k, node, sealedStash(encoding.DPR, floatenc.FP16, 256, 0))
	in.FailSpillWrite(k, node)
	in.PlanSpillPage(k, node, 512)
}

// sortedEvents returns the log as a sorted multiset.
func sortedEvents(in *Injector) []string {
	var out []string
	for _, ev := range in.Events() {
		out = append(out, fmt.Sprintf("%+v", ev))
	}
	slices.Sort(out)
	return out
}

// TestDrawsAreOrderFree pins the keyed-draw contract the executor's
// production schedule relies on: every die is a pure function of (seed,
// key, node, site), so the same set of rolls logs the same event multiset
// in node order, in reverse, and on one goroutine per roll — and a retried
// attempt draws afresh.
func TestDrawsAreOrderFree(t *testing.T) {
	cfg := Config{Seed: 17, BitFlipRate: 0.3, EncodeFailRate: 0.2, DecodeFailRate: 0.2,
		SpillWriteFailRate: 0.2, SpillReadCorruptRate: 0.2, SpillShortReadRate: 0.2}
	type roll struct {
		k    Key
		node string
	}
	var rolls []roll
	for step := 1; step <= 3; step++ {
		for shard := 0; shard < 2; shard++ {
			for n := 0; n < 16; n++ {
				rolls = append(rolls, roll{Key{Step: step, Shard: shard}, fmt.Sprintf("relu%d", n)})
			}
		}
	}

	inOrder, reversed, concurrent := New(cfg), New(cfg), New(cfg)
	for _, r := range rolls {
		rollAll(inOrder, r.k, r.node)
	}
	for i := len(rolls) - 1; i >= 0; i-- {
		rollAll(reversed, rolls[i].k, rolls[i].node)
	}
	var wg sync.WaitGroup
	for _, r := range rolls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rollAll(concurrent, r.k, r.node)
		}()
	}
	wg.Wait()

	want := sortedEvents(inOrder)
	if len(want) == 0 {
		t.Fatal("no fault fired; the comparison proved nothing")
	}
	if got := sortedEvents(reversed); !reflect.DeepEqual(got, want) {
		t.Fatalf("reverse order logged %d events, node order %d: the draws depend on call order", len(got), len(want))
	}
	if got := sortedEvents(concurrent); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent rolls logged %d events, node order %d: the draws depend on the goroutine", len(got), len(want))
	}

	// The same rolls at the next attempt hit a different set of stashes.
	retry := New(cfg)
	for _, r := range rolls {
		r.k.Attempt = 1
		rollAll(retry, r.k, r.node)
	}
	hits := func(in *Injector) []string {
		var out []string
		for _, ev := range in.Events() {
			out = append(out, fmt.Sprintf("%v %d/%d %s %s", ev.Kind, ev.Step, ev.Shard, ev.Node, ev.Detail))
		}
		slices.Sort(out)
		return out
	}
	if reflect.DeepEqual(hits(retry), hits(inOrder)) {
		t.Fatal("attempt 1 drew exactly what attempt 0 drew: a retry must draw afresh")
	}
}
