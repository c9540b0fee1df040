package stashstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/race"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// testStash builds a deterministic sealed ZVC/FP16 stash from a seeded
// ReLU-like feature map (~50% sparsity).
func testStash(t *testing.T, seed uint64) *encoding.EncodedStash {
	t.Helper()
	var c encoding.Codec
	e := &encoding.EncodedStash{}
	if err := c.EncodeStashInto(e, &encoding.Assignment{
		Tech: encoding.ZVC, Format: floatenc.FP16, NeedsDecode: true,
	}, testTensor(seed)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	c.Seal(e)
	return e
}

// parsedPage is one spill page read by parsePage.
type parsedPage struct {
	Node, Size int
	Stash      *encoding.EncodedStash
}

// parsePage parses one spill page into a fresh stash.
func parsePage(data []byte) (*parsedPage, error) {
	p := &parsedPage{Stash: &encoding.EncodedStash{}}
	var err error
	if p.Node, p.Size, err = ReadPage(p.Stash, data); err != nil {
		return nil, err
	}
	return p, nil
}

// decode decodes e into a fresh tensor of its shape.
func decode(e *encoding.EncodedStash) (*tensor.Tensor, error) {
	out := tensor.New(e.Shape...)
	return out, encoding.Codec{}.DecodeInto(out, e)
}

func testTensor(seed uint64) *tensor.Tensor {
	ten := tensor.New(2, 3, 4, 4)
	rng := tensor.NewRNG(seed)
	for i := range ten.Data {
		v := rng.Float32()*2 - 1
		if v < 0 {
			v = 0
		}
		ten.Data[i] = v
	}
	return ten
}

func TestPageRoundTrip(t *testing.T) {
	var c encoding.Codec
	ten := testTensor(12345)
	cases := []struct {
		name string
		enc  func() *encoding.EncodedStash // nil: the frozen SSDC page, which must be rejected
	}{
		{"ssdc-fp16", nil},
		{"dense-fp32", func() *encoding.EncodedStash {
			e := &encoding.EncodedStash{}
			if err := c.EncodeStashInto(e, &encoding.Assignment{
				Tech: encoding.DPR, Format: floatenc.FP32,
			}, ten); err != nil {
				t.Fatalf("encode: %v", err)
			}
			c.Seal(e)
			return e
		}},
		{"zvc-unsealed", func() *encoding.EncodedStash {
			e := &encoding.EncodedStash{}
			if err := c.EncodeStashInto(e, &encoding.Assignment{
				Tech: encoding.ZVC, Format: floatenc.FP32,
			}, ten); err != nil {
				t.Fatalf("encode: %v", err)
			}
			return e
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.enc == nil {
				ssdc, err := hex.DecodeString(goldenSSDCPageHex)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := parsePage(ssdc); !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("the frozen SSDC page parses: %v, want ErrCorruptPage", err)
				}
				return
			}
			enc := c.enc()
			page, err := AppendPage(nil, 42, enc)
			if err != nil {
				t.Fatalf("AppendPage: %v", err)
			}
			// Trailing bytes are allowed; Size reports the page's extent.
			p, err := parsePage(append(page, 0xde, 0xad))
			if err != nil {
				t.Fatalf("ReadPage: %v", err)
			}
			if p.Node != 42 || p.Size != len(page) {
				t.Fatalf("node %d size %d, want 42 %d", p.Node, p.Size, len(page))
			}
			dec, err := decode(p.Stash)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			ref, err := decode(enc)
			if err != nil {
				t.Fatalf("decode ref: %v", err)
			}
			for i := range ref.Data {
				if dec.Data[i] != ref.Data[i] {
					t.Fatalf("element %d differs after round trip", i)
				}
			}
		})
	}
}

// goldenPageHex is node 1's page of testStash(12345), printed by
// internal/goldengen.
const goldenPageHex = "475354500100000001000000ac000000475354340400000001000000008001000400000002000000030000000400000004000000010000006000000030000000cb05f627d8736e1540b4db340000000016320d388e37ff3b102c06384238073aba3137390e38ec3574366e39b8365e3a8034ef3b3a36103b923b4a3aba370c3bbe345638443a142e582afc387d33e6347232123b3b3876391130433a71387138a03046383527db36d63afd3bc23bb8387cdea61601000000c15b7b0a0e541303"

// goldenSSDCPageHex is node 1's page of the SSDC/FP16 stash testStash(12345)
// built when the runtime still held narrow CSR — TestPageRoundTrip's
// "ssdc-fp16" row until then. Its technique word no longer names a
// container, so the page must be rejected.
const goldenSSDCPageHex = "475354500100000001000000d80000004753543402000000010000000080010004000000020000000300000004000000040000000100000060000000000100003000000000000000300000000001030607080a11121415161718191a1d2324262728292c2d2e3132333536383a3c464a4c4d4f5051535456575a5c5d16320d388e37ff3b102c06384238073aba3137390e38ec3574366e39b8365e3a8034ef3b3a36103b923b4a3aba370c3bbe345638443a142e582afc387d33e6347232123b3b3876391130433a71387138a03046383527db36d63afd3bc23bb838370d9b0201000000e2dbbef3850033d2"

func goldenPage(t *testing.T) []byte {
	t.Helper()
	raw, err := hex.DecodeString(goldenPageHex)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	return raw
}

// wireBufs are the page buffer sizes the stream tests run: the smallest
// that holds a mask word, odd and small ones that put buffer refills inside
// every header word, segment and the trailer, and the store's own.
var wireBufs = []int{8, 9, 64, pageBufBytes}

// memSection is an in-memory io.WriterAt, growing to what is written.
type memSection struct{ b []byte }

func (m *memSection) WriteAt(p []byte, off int64) (int, error) {
	if end := int(off) + len(p); end > len(m.b) {
		m.b = append(m.b, make([]byte, end-len(m.b))...)
	}
	return copy(m.b[off:], p), nil
}

// writePageVia writes node's page for enc through a buf-byte buffer into a
// fresh section and returns the section's bytes.
func writePageVia(t *testing.T, buf int, node uint32, enc *encoding.EncodedStash) []byte {
	t.Helper()
	var m memSection
	w := encoding.NewWireWriter(&m, 0, make([]byte, buf))
	n, err := writePage(&w, node, enc)
	if err != nil {
		t.Fatalf("writePage through %d bytes: %v", buf, err)
	}
	if n != len(m.b) {
		t.Fatalf("writePage through %d bytes reports %d bytes, wrote %d", buf, n, len(m.b))
	}
	return m.b
}

// readPageVia parses the n-byte page section of src through a buf-byte
// buffer into a fresh stash.
func readPageVia(src io.ReaderAt, n, buf int) (*parsedPage, error) {
	p := &parsedPage{Stash: &encoding.EncodedStash{}}
	r := encoding.NewWireReader(src, 0, n, make([]byte, buf))
	var err error
	if p.Node, p.Size, err = readPage(p.Stash, &r); err != nil {
		return nil, err
	}
	return p, nil
}

// TestGoldenPage freezes the GSTP byte layout: the fixture was printed by
// internal/goldengen and must only change with an intentional, versioned
// format break. Every writer — AppendPage, the stream through every buffer
// size, the store's spill — reproduces it, and every reader recovers the
// exact feature map from it.
func TestGoldenPage(t *testing.T) {
	raw := goldenPage(t)
	want := testTensor(12345)
	half := floatenc.EncodeSlice(floatenc.FP16, want.Data).DecodeSlice(make([]float32, len(want.Data)))
	check := func(how string, page []byte, p *parsedPage, err error) {
		t.Helper()
		if string(page) != string(raw) {
			t.Fatalf("%s no longer reproduces the golden page (len %d vs %d); regenerate with internal/goldengen only on an intentional format break", how, len(page), len(raw))
		}
		if err != nil {
			t.Fatalf("%s: read: %v", how, err)
		}
		if p.Node != 1 || p.Size != len(raw) {
			t.Fatalf("%s: node %d size %d, want 1 %d", how, p.Node, p.Size, len(raw))
		}
		dec, err := decode(p.Stash)
		if err != nil {
			t.Fatalf("%s: decode: %v", how, err)
		}
		for i := range half {
			if dec.Data[i] != half[i] {
				t.Fatalf("%s: element %d: got %v want %v", how, i, dec.Data[i], half[i])
			}
		}
	}
	page, err := AppendPage(nil, 1, testStash(t, 12345))
	if err != nil {
		t.Fatalf("AppendPage: %v", err)
	}
	p, err := parsePage(raw)
	check("AppendPage/ReadPage", page, p, err)
	for _, buf := range wireBufs {
		page := writePageVia(t, buf, 1, testStash(t, 12345))
		p, err := readPageVia(bytes.NewReader(raw), len(raw), buf)
		check(fmt.Sprintf("the %d-byte stream", buf), page, p, err)
	}
	// The store writes the same page into its spill file.
	s := New(Config{Budget: 1, Dir: t.TempDir()})
	t.Cleanup(func() { _ = s.Close() })
	if err := s.Put(1, testStash(t, 12345)); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(s.SpillPath())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Fetch(1)
	check("the spill file", file, &parsedPage{Node: 1, Size: len(file), Stash: enc}, err)
}

func TestReadPageRejectsCorruption(t *testing.T) {
	page, err := AppendPage(nil, 9, testStash(t, 7))
	if err != nil {
		t.Fatalf("AppendPage: %v", err)
	}
	// Every truncation fails cleanly.
	for n := 0; n < len(page); n++ {
		if _, err := parsePage(page[:n]); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptPage", n, err)
		}
	}
	// Any single flipped bit fails cleanly (the CRC covers every byte; the
	// trailer bytes are the CRC itself).
	for i := 0; i < len(page); i++ {
		bad := append([]byte(nil), page...)
		bad[i] ^= 0x01
		if _, err := parsePage(bad); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptPage", i, err)
		}
	}
	// A huge declared payload is rejected before any allocation.
	bad := append([]byte(nil), page...)
	bad[12], bad[13], bad[14], bad[15] = 0xff, 0xff, 0xff, 0x7f
	if _, err := parsePage(bad); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("huge payload: err = %v, want ErrCorruptPage", err)
	}
}

// TestReadPageAtRejectsCorruption runs the golden page's truncations and
// single-bit flips through the store's file reader (pageBuf over a spill
// file section), at every buffer size: each is ErrCorruptPage. A
// truncation is a page shorter than its section (a short read) or a
// section that ends early; a flip is on disk or the injector's, applied as
// the byte streams past.
func TestReadPageAtRejectsCorruption(t *testing.T) {
	raw := goldenPage(t)
	f, err := os.CreateTemp(t.TempDir(), "page-*.gstp")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const base = 5 // the section does not start the file
	write := func(page []byte) {
		t.Helper()
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(page, base); err != nil {
			t.Fatal(err)
		}
	}
	read := func(n, buf int, fault faults.PageFault) error {
		pb := &pageBuf{f: f, base: base, fault: fault}
		_, err := readPageVia(pb, n, buf)
		return err
	}
	for _, buf := range wireBufs {
		write(raw)
		if err := read(len(raw), buf, faults.PageFault{}); err != nil {
			t.Fatalf("buf %d: intact page: %v", buf, err)
		}
		for n := 0; n < len(raw); n++ {
			if err := read(n, buf, faults.PageFault{}); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("buf %d: a %d-byte section: err = %v, want ErrCorruptPage", buf, n, err)
			}
			if err := read(len(raw), buf, faults.PageFault{Cut: true, At: n}); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("buf %d: page cut to %d bytes: err = %v, want ErrCorruptPage", buf, n, err)
			}
			if err := read(len(raw), buf, faults.PageFault{Flip: true, At: n}); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("buf %d: injected flip at byte %d: err = %v, want ErrCorruptPage", buf, n, err)
			}
		}
		for i := 0; i < len(raw); i++ {
			bad := append([]byte(nil), raw...)
			bad[i] ^= 0x01
			write(bad)
			if err := read(len(raw), buf, faults.PageFault{}); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("buf %d: flip at byte %d: err = %v, want ErrCorruptPage", buf, i, err)
			}
		}
		write(raw[:len(raw)/2])
		if err := read(len(raw), buf, faults.PageFault{}); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("buf %d: torn file: err = %v, want ErrCorruptPage", buf, err)
		}
	}
}

// storeWith builds a store in a test temp dir and registers cleanup.
func storeWith(t *testing.T, budget int64, pri []int) *Store {
	t.Helper()
	s := New(Config{Budget: budget, Dir: t.TempDir(), Priority: pri})
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestHitPath(t *testing.T) {
	s := storeWith(t, 1<<20, []int{5})
	enc := testStash(t, 1)
	if err := s.Put(0, enc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Fetch(0)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got != enc {
		t.Fatal("hot-tier hit should hand back the same stash pointer")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 put, 1 hit", st)
	}
	if st.HotBytes != 0 {
		t.Fatalf("HotBytes = %d after fetch, want 0", st.HotBytes)
	}
	if _, err := s.Fetch(0); err == nil {
		t.Fatal("second fetch of the same node should fail")
	}
}

// TestEvictionOrder pins the placement policy: the resident whose backward
// use is furthest away (largest FirstBackwardUse step) spills first, a
// stash with no backward use spills before everything, and ties break
// toward the larger node ID — all independent of map iteration order.
func TestEvictionOrder(t *testing.T) {
	one := testStash(t, 1).Bytes()
	// Room for exactly two residents.
	s := storeWith(t, 2*one, []int{10, 5, -1, 20})
	for id := 0; id < 4; id++ {
		if err := s.Put(id, testStash(t, uint64(id+1))); err != nil {
			t.Fatalf("Put %d: %v", id, err)
		}
	}
	// Put 2 overflowed → node 2 (no backward use) spilled; put 3
	// overflowed → node 3 (furthest backward use, step 20) spilled.
	// Nodes 0 and 1 (steps 10, 5 — needed soonest) stayed hot.
	for id, wantHot := range map[int]bool{0: true, 1: true, 2: false, 3: false} {
		before := s.Stats()
		if _, err := s.Fetch(id); err != nil {
			t.Fatalf("Fetch %d: %v", id, err)
		}
		after := s.Stats()
		gotHot := after.Hits == before.Hits+1
		if gotHot != wantHot {
			t.Errorf("node %d: hot=%v, want %v", id, gotHot, wantHot)
		}
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 evictions, 2 misses, 2 hits", st)
	}
	if st.HotPeakBytes > 2*one {
		t.Fatalf("HotPeakBytes %d exceeded budget %d", st.HotPeakBytes, 2*one)
	}

	// Tie break: equal priorities spill the larger node ID first.
	s2 := storeWith(t, 2*one, []int{7, 7, 7})
	for id := 0; id < 3; id++ {
		if err := s2.Put(id, testStash(t, uint64(id+1))); err != nil {
			t.Fatalf("Put %d: %v", id, err)
		}
	}
	before := s2.Stats()
	if _, err := s2.Fetch(2); err != nil {
		t.Fatalf("Fetch 2: %v", err)
	}
	if s2.Stats().Misses != before.Misses+1 {
		t.Fatal("tie at equal priority should have spilled node 2 (largest ID)")
	}
}

// TestBeginStepReusesFile pins the bounded-file property: the write offset
// rewinds every step, so the scratch file never grows past one step's
// spill footprint.
func TestBeginStepReusesFile(t *testing.T) {
	one := testStash(t, 1).Bytes()
	s := storeWith(t, one, []int{1, 2, 3, 4})
	var size int64
	for step := 0; step < 5; step++ {
		s.BeginStep()
		for id := 0; id < 4; id++ {
			if err := s.Put(id, testStash(t, uint64(id+1))); err != nil {
				t.Fatalf("step %d put %d: %v", step, id, err)
			}
		}
		fi, err := os.Stat(s.SpillPath())
		if err != nil {
			t.Fatalf("stat spill file: %v", err)
		}
		if step == 0 {
			size = fi.Size()
		} else if fi.Size() != size {
			t.Fatalf("step %d: spill file grew to %d (step 0: %d)", step, fi.Size(), size)
		}
	}
	if st := s.Stats(); st.Evictions != 15 {
		// 3 spills per step × 5 steps (budget holds exactly one stash).
		t.Fatalf("evictions = %d, want 15", st.Evictions)
	}
}

func TestCloseRemovesSpillFile(t *testing.T) {
	one := testStash(t, 1).Bytes()
	s := storeWith(t, one, []int{1, 2})
	if err := s.Put(0, testStash(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, testStash(t, 2)); err != nil {
		t.Fatal(err)
	}
	path := s.SpillPath()
	if path == "" {
		t.Fatal("expected a spill file after eviction")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill file %s survived Close (err=%v)", path, err)
	}
	if s.SpillPath() != "" {
		t.Fatal("SpillPath should be empty after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The store stays usable: a later spill recreates the file.
	if err := s.Put(0, testStash(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, testStash(t, 2)); err != nil {
		t.Fatal(err)
	}
	if s.SpillPath() == "" {
		t.Fatal("expected a recreated spill file after Close+Put")
	}
}

func TestSpillWriteFaultSurfaces(t *testing.T) {
	one := testStash(t, 1).Bytes()
	inj := faults.New(faults.Config{Seed: 3, SpillWriteFailRate: 1})
	s := New(Config{Budget: one, Dir: t.TempDir(), Priority: []int{1, 2}, Faults: inj})
	t.Cleanup(func() { _ = s.Close() })
	if err := s.Put(0, testStash(t, 1)); err != nil {
		t.Fatalf("within-budget put should not spill: %v", err)
	}
	err := s.Put(1, testStash(t, 2))
	if !errors.Is(err, faults.ErrInjected) || !errors.Is(err, faults.ErrInjectedSpillWrite) {
		t.Fatalf("err = %v, want injected spill-write failure", err)
	}
}

func TestSpillReadCorruptionDetected(t *testing.T) {
	one := testStash(t, 1).Bytes()
	inj := faults.New(faults.Config{Seed: 4, SpillReadCorruptRate: 1})
	s := New(Config{Budget: one, Dir: t.TempDir(), Priority: []int{1, 2}, Faults: inj})
	t.Cleanup(func() { _ = s.Close() })
	if err := s.Put(0, testStash(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, testStash(t, 2)); err != nil {
		t.Fatal(err)
	}
	// Node 1 spilled (priority 2 > 1); its read-back is tampered.
	if _, err := s.Fetch(1); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("err = %v, want ErrCorruptPage", err)
	}
	if got := inj.Counts()[faults.SpillReadCorrupt]; got != 1 {
		t.Fatalf("injector recorded %d corruptions, want 1", got)
	}
}

// TestConcurrentFetchHammer drives the store the way the executor's decode
// futures do — serial puts, then a burst of concurrent fetches — across
// many steps. Run under -race via make race-hot.
func TestConcurrentFetchHammer(t *testing.T) {
	const nodes = 16
	pri := make([]int, nodes)
	stashes := make([]*encoding.EncodedStash, nodes)
	refs := make([]*tensor.Tensor, nodes)
	var bytes int64
	for i := range pri {
		pri[i] = nodes - i // node 0's backward use is furthest: spills first
		stashes[i] = testStash(t, uint64(i+1))
		bytes += stashes[i].Bytes()
		ref, err := decode(stashes[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	s := storeWith(t, bytes/10, pri)
	steps := 20
	if testing.Short() {
		steps = 5
	}
	for step := 0; step < steps; step++ {
		s.BeginStep()
		for id := 0; id < nodes; id++ {
			if err := s.Put(id, stashes[id]); err != nil {
				t.Fatalf("put %d: %v", id, err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for id := 0; id < nodes; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				enc, err := s.Fetch(id)
				if err != nil {
					errs[id] = err
					return
				}
				dec, err := decode(enc)
				if err != nil {
					errs[id] = err
					return
				}
				for k := range dec.Data {
					if dec.Data[k] != refs[id].Data[k] {
						errs[id] = fmt.Errorf("node %d: element %d differs", id, k)
						return
					}
				}
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("step %d node %d: %v", step, id, err)
			}
		}
	}
	st := s.Stats()
	if st.Evictions == 0 || st.Misses == 0 {
		t.Fatalf("hammer never spilled (stats %+v) — budget too generous", st)
	}
	if st.HotPeakBytes > bytes/10 {
		t.Fatalf("hot peak %d exceeded budget %d", st.HotPeakBytes, bytes/10)
	}
}

// TestSpillRoundTripAllocs pins the spill round trip's allocation budget:
// once warm, a step that puts two stashes under a budget that holds one —
// so one spills — and fetches both back allocates nothing. The page streams
// from the container through a recycled page buffer into the file and back,
// through the same buffer, into the container that was put; with no two
// page I/Os in flight at once the store keeps exactly one such buffer. An
// unnamed store pays the same: it formats no node name unless an error, a
// traced span or an enabled injector asks for one.
func TestSpillRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, names := range [][]string{{"a", "b"}, nil} {
		t.Run(fmt.Sprintf("names=%v", names), func(t *testing.T) { spillRoundTripAllocs(t, names) })
	}
}

func spillRoundTripAllocs(t *testing.T, names []string) {
	a, b := testStash(t, 1), testStash(t, 2)
	s := New(Config{Budget: a.Bytes(), Dir: t.TempDir(), Priority: []int{1, 2}, Names: names})
	t.Cleanup(func() { _ = s.Close() })
	step := func() {
		s.BeginStep()
		for id, enc := range []*encoding.EncodedStash{a, b} {
			if err := s.Put(id, enc); err != nil {
				t.Fatal(err)
			}
		}
		for id, want := range []*encoding.EncodedStash{a, b} {
			if got, err := s.Fetch(id); err != nil || got != want {
				t.Fatalf("fetch %d: %p, %v; want the container that was put", id, got, err)
			}
		}
	}
	step() // warm: creates the spill file and sizes the page buffer
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Errorf("a spilling put/fetch step allocates %v times, want 0", got)
	}
	// One spill read per step: the warm step, AllocsPerRun's own warm-up
	// run and its 20 measured runs.
	if st := s.Stats(); st.Misses != 22 {
		t.Fatalf("%d spill reads in 22 steps, want 22", st.Misses)
	}
	if len(s.bufs) != 1 {
		t.Fatalf("the store keeps %d page buffers, want 1", len(s.bufs))
	}
	ref, err := decode(testStash(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decode(b)
	if err != nil {
		t.Fatalf("decode the container read back from its page: %v", err)
	}
	for i := range ref.Data {
		if dec.Data[i] != ref.Data[i] {
			t.Fatalf("element %d differs after 22 spill round trips", i)
		}
	}
}

// TestSpillRAMBounded spills and fetches back a 1 MiB map, 32 page buffers
// long, for 20 steps. The store never holds more than its one fixed page
// buffer: the first step allocates less than two of them (the buffer and
// the spill file's handle, nothing page-sized), the others nothing, and
// the map read back through it each step decodes to the bits that were
// put.
func TestSpillRAMBounded(t *testing.T) {
	const elems = 1 << 18 // 1 MiB of FP32
	ten := tensor.New(elems)
	rng := tensor.NewRNG(9)
	for i := range ten.Data {
		ten.Data[i] = rng.Float32()*2 - 1
	}
	var c encoding.Codec
	enc := &encoding.EncodedStash{}
	if err := c.EncodeStashInto(enc, &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP32}, ten); err != nil {
		t.Fatal(err)
	}
	c.Seal(enc)
	if page := enc.Bytes(); page < 8*pageBufBytes {
		t.Fatalf("a %d-byte stash is not 8 page buffers long", page)
	}
	ref, err := decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Budget: 1, Dir: t.TempDir(), Names: []string{"map"}})
	t.Cleanup(func() { _ = s.Close() })
	step := func() {
		s.BeginStep()
		if err := s.Put(0, enc); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Fetch(0); err != nil || got != enc {
			t.Fatalf("fetch: %p, %v; want the container that was put", got, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*pageBufBytes && !race.Enabled {
		t.Errorf("the first spill round trip allocated %d bytes, want under %d", grew, 2*pageBufBytes)
	}
	for i := 1; i < 20; i++ {
		if a := testing.AllocsPerRun(1, step); a != 0 && !race.Enabled {
			t.Fatalf("step %d allocates %v times, want 0", i, a)
		}
	}
	if len(s.bufs) != 1 || cap(s.bufs[0].buf) != pageBufBytes {
		t.Fatalf("the store keeps %d page buffers, the first of %d bytes; want 1 of %d", len(s.bufs), cap(s.bufs[0].buf), pageBufBytes)
	}
	if st := s.Stats(); st.Misses < 20 || st.SpillRead != st.SpillWritten {
		t.Fatalf("stats %+v: want every step's page read back whole", st)
	}
	dec, err := decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if math.Float32bits(dec.Data[i]) != math.Float32bits(ref.Data[i]) {
			t.Fatalf("element %d differs after the spill round trips", i)
		}
	}
}

// TestNilSafety: a store with no telemetry, faults, names or priorities
// works (nil sink instruments are no-ops; unknown nodes evict first).
func TestNilSafety(t *testing.T) {
	s := New(Config{Budget: 1, Dir: t.TempDir()})
	t.Cleanup(func() { _ = s.Close() })
	if err := s.Put(3, testStash(t, 1)); err != nil {
		t.Fatal(err)
	}
	enc, err := s.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(99); err == nil {
		t.Fatal("fetch of never-stored node should fail")
	}
}

// TestTelemetryInstruments: the gauges and counters land in the sink under
// the documented names.
func TestTelemetryInstruments(t *testing.T) {
	tel := telemetry.New()
	one := testStash(t, 1).Bytes()
	s := New(Config{Budget: one, Dir: t.TempDir(), Priority: []int{1, 2}, Tel: tel})
	t.Cleanup(func() { _ = s.Close() })
	if err := s.Put(0, testStash(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, testStash(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(0); err != nil {
		t.Fatal(err)
	}
	vals := tel.Values()
	for _, name := range []string{
		"stash.store.hot_peak_bytes", "stash.store.evictions",
		"stash.store.hits", "stash.store.misses",
		"stash.store.spill.write_bytes", "stash.store.spill.read_bytes",
	} {
		if vals[name] == 0 {
			t.Errorf("instrument %q missing or zero (values: %v)", name, vals)
		}
	}
	if vals["stash.store.hot_peak_bytes"] > one {
		t.Errorf("hot peak gauge %d exceeds budget %d", vals["stash.store.hot_peak_bytes"], one)
	}
}
