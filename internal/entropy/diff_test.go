package entropy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gist/internal/floatenc"
)

// The differential wall between the table-driven kernels and the frozen
// references — the bit-serial coder in ref_test.go, and for encode also the
// two-phase encoder in twophase_test.go: encode must be byte-equal, decode
// must reach the same accept-or-reject verdict and, when it accepts, the
// same bytes — on valid blocks and on every kind of damaged one.

// diffPayloads extends testInputs with seeded payloads up to one full FP16
// chunk (98 304 elements, 196 608 bytes): sparse, dense, and skewed enough
// that plain Huffman exceeds maxCodeLen and the count-halving retry runs.
func diffPayloads() [][]byte {
	r := rand.New(rand.NewSource(21))
	fill := func(n int, density float64, alphabet int) []byte {
		b := make([]byte, n)
		for i := range b {
			if r.Float64() < density {
				b[i] = byte(1 + r.Intn(alphabet))
			}
		}
		return b
	}
	const chunk = 98304 * 2
	payloads := append(testInputs(),
		fill(chunk, 0.5, 255),
		fill(chunk, 0.05, 255),
		fill(chunk, 1, 255),
		fill(chunk, 0.3, 3),
		fill(chunk-3, 0.5, 40),
		fill(70001, 0.02, 255),
		make([]byte, chunk),
		skewed(24, r),
		skewed(30, r),
	)
	for _, n := range []int{253, 254, 255, 256, 257, 509, 510, 511, 512, 1019, 1020, 1021} {
		z := make([]byte, n+2) // zero runs straddling the 255 split and word boundaries
		z[0], z[n+1] = 1, 2
		payloads = append(payloads, z, z[1:], z[:n+1])
	}
	return payloads
}

// skewed builds a shuffled payload in which byte value i+1 occurs
// Fibonacci(i) times: the histogram whose Huffman tree is a vine of depth
// k-1, so k > 16 forces the length limiter and yields 12-15-bit codes.
func skewed(k int, r *rand.Rand) []byte {
	var b []byte
	f0, f1 := 1, 1
	for i := 0; i < k; i++ {
		b = append(b, bytes.Repeat([]byte{byte(i + 1)}, f0)...)
		f0, f1 = f1, f0+f1
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

func longestCode(blk []byte) uint8 {
	var lens [numSymbols]uint8
	readLengths(&lens, blk)
	longest := uint8(0)
	for _, l := range lens {
		longest = max(longest, l)
	}
	return longest
}

// windowPayloads places zero runs of 254, 255, 256, 510 and 511 bytes —
// one short of, at and past the 255-byte run split, once and twice — across
// the 1024-byte tokenizer windows and at the very end of the input, the
// chunk tail where the open run is closed, at lengths that are and are not
// whole words.
func windowPayloads() [][]byte {
	r := rand.New(rand.NewSource(24))
	dense := make([]byte, 3*windowBytes)
	for i := range dense {
		dense[i] = byte(1 + r.Intn(255))
	}
	var payloads [][]byte
	for _, l := range []int{254, 255, 256, 510, 511} {
		for _, at := range []int{windowBytes - l, windowBytes - l/2, windowBytes - 1, windowBytes, 2*windowBytes - l + 1} {
			p := slices.Clone(dense)
			clear(p[at : at+l])
			payloads = append(payloads, p)
		}
		for _, n := range []int{2 * windowBytes, 2*windowBytes + 1, 2*windowBytes + 3, windowBytes + l} {
			p := slices.Clone(dense[:n])
			clear(p[n-l:])
			payloads = append(payloads, p)
		}
	}
	return payloads
}

// diffBytes fails unless Encode and the frozen two-phase encoder both
// produce the reference's block for src, and returns that block.
func diffBytes(t testing.TB, label string, src []byte) []byte {
	t.Helper()
	want := refEncode(nil, src)
	if got := Encode(nil, src); !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes): Encode differs from the reference (%d vs %d bytes)", label, len(src), len(got), len(want))
	}
	if got := twoPhaseEncode(nil, src); !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes): the two-phase encoder differs from the reference", label, len(src))
	}
	return want
}

// diffPacked fails unless Plan+Emit over FP32 input xs at format f — the
// codec's entry points, packing included — produce, at the size Plan
// promises, the block the reference and the frozen two-phase encoder make
// from the whole-slice DPR packing of xs.
func diffPacked(t testing.TB, label string, f floatenc.Format, xs []float32) {
	t.Helper()
	p := floatenc.EncodeSlice(f, xs)
	want := refEncode(nil, packedBytes(nil, p))
	var table [TableBytes]byte
	n := 4 * len(p.Words)
	if size := twoPhasePlan(table[:], p.Words, n); size != len(want) {
		t.Fatalf("%s %v: the two-phase plan says %d bytes, the reference block has %d", label, f, size, len(want))
	}
	two := make([]byte, len(want))
	copy(two, table[:])
	twoPhaseEmit(two, p.Words, n)
	if !bytes.Equal(two, want) {
		t.Fatalf("%s %v: the two-phase encoder differs from the reference", label, f)
	}
	size, toks := Plan(table[:], nil, f, xs)
	if size != len(want) {
		t.Fatalf("%s %v (%d elements): Plan says %d bytes, the reference block has %d", label, f, len(xs), size, len(want))
	}
	blk := make([]byte, size)
	copy(blk, table[:])
	Emit(blk, toks)
	if !bytes.Equal(blk, want) {
		t.Fatalf("%s %v (%d elements): Plan+Emit differs from the reference", label, f, len(xs))
	}
}

// asFloats reads src's whole little-endian words as FP32 bit patterns.
func asFloats(src []byte) []float32 {
	xs := make([]float32, len(src)/4)
	for w := range xs {
		xs[w] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*w:]))
	}
	return xs
}

var packFormats = []floatenc.Format{floatenc.FP32, floatenc.FP16, floatenc.FP10, floatenc.FP8}

func TestDiffEntropyEncode(t *testing.T) {
	sawLong := false
	for i, src := range append(diffPayloads(), windowPayloads()...) {
		label := fmt.Sprintf("payload %d", i)
		want := diffBytes(t, label, src)
		if len(src) > 0 && longestCode(want) > peekBits {
			sawLong = true
		}
		// The codec's entry points: the payload's words as FP32 input,
		// which FP32 packs bit for bit.
		if len(src)%4 == 0 {
			diffPacked(t, label, floatenc.FP32, asFloats(src))
		}
	}
	if !sawLong {
		t.Fatalf("no payload produced a code longer than %d bits: the length limiter went untested", peekBits)
	}
	// Every packing, on a ReLU-like map whose zero runs of whole elements
	// cross the pack windows, and at element counts with a ragged last word.
	r := rand.New(rand.NewSource(25))
	xs := make([]float32, 4*windowBytes+5)
	for i := range xs {
		if v := float32(r.NormFloat64()); v > 0 && (i/300)%3 != 1 {
			xs[i] = v
		}
	}
	for _, f := range packFormats {
		for _, n := range []int{0, 1, 2, 3, 767, 768, 769, 1536, len(xs)} {
			diffPacked(t, fmt.Sprintf("relu map[:%d]", n), f, xs[:n])
		}
	}
}

// FuzzEntropyEncodeDiff holds the encoder byte-equal to the frozen two-phase
// encoder and the bit-serial reference on arbitrary bytes (any length, tails
// that are not whole words included), repeated to reach the tokenizer's
// window boundaries, and on the same bytes read as FP32 input at every DPR
// packing.
func FuzzEntropyEncodeDiff(f *testing.F) {
	for _, src := range testInputs() {
		f.Add(src, uint8(0), uint8(1))
	}
	for _, src := range windowPayloads()[:6] {
		f.Add(src, uint8(1), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, rep, format uint8) {
		src := bytes.Repeat(data, 1+int(rep)%16)
		diffBytes(t, "fuzz", src)
		diffPacked(t, "fuzz", packFormats[int(format)%len(packFormats)], asFloats(src))
	})
}

// TestDiffHuffmanLengths compares the heap-free tree build with the
// reference heap on histograms chosen to tie: equal counts, counts equal to
// merged weights, power-of-two and Fibonacci ladders, and seeded noise.
func TestDiffHuffmanLengths(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	check := func(label string, hist *[numSymbols]int) {
		var ref [numSymbols]int64
		for s, c := range hist {
			ref[s] = int64(c)
		}
		if got, want := codeLengths(hist), refBuildCodeLens(&ref); got != want {
			t.Fatalf("%s: code lengths differ\n got %v\nwant %v", label, got, want)
		}
	}
	var h [numSymbols]int
	for s := range h {
		h[s] = 1
	}
	check("all ones", &h)
	for s := range h {
		h[s] = 1 << (s % 20)
	}
	check("powers of two", &h)
	f0, f1 := 1, 1
	for s := range h {
		h[s] = 0
		if s%6 == 0 && f0 < 1<<40 {
			h[s] = f0
			f0, f1 = f1, f0+f1
		}
	}
	check("fibonacci", &h)
	for trial := 0; trial < 2000; trial++ {
		present, spread := 1+r.Intn(numSymbols), 1+r.Intn(1<<uint(r.Intn(24)))
		h = [numSymbols]int{}
		for i := 0; i < present; i++ {
			h[r.Intn(numSymbols)] = 1 + r.Intn(spread)
		}
		check("seeded", &h)
	}
}

// diffDecode decodes blk into n bytes three ways — the reference, Decode,
// and a Decoder drained in windows of seeded sizes — and fails unless all
// three agree on the verdict and, when they accept, on the bytes. It
// reports whether the block was accepted.
func diffDecode(t testing.TB, label string, blk []byte, n int, r *rand.Rand) bool {
	t.Helper()
	want := make([]byte, n)
	refErr := refDecode(want, blk)
	got := bytes.Repeat([]byte{0xa5}, n)
	err := Decode(got, blk)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: error %v does not wrap ErrCorrupt", label, err)
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: Decode says %v, the reference %v", label, err, refErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: Decode accepted with different bytes than the reference", label)
	}
	win, werr := windowedDecode(blk, n, func() int { return 1 + r.Intn(97) })
	if (werr == nil) != (refErr == nil) {
		t.Fatalf("%s: windowed decode says %v, the reference %v", label, werr, refErr)
	}
	if werr == nil && !bytes.Equal(win, want) {
		t.Fatalf("%s: windowed decode accepted with different bytes than the reference", label)
	}
	return err == nil
}

// windowedDecode decodes blk into n bytes through one Decoder, in windows
// of the sizes next returns.
func windowedDecode(blk []byte, n int, next func() int) ([]byte, error) {
	win := bytes.Repeat([]byte{0x5a}, n)
	var d Decoder
	err := d.Init(blk, n)
	for off := 0; err == nil && off < n; {
		k := min(next(), n-off)
		err = d.Read(win[off : off+k])
		off += k
	}
	return win, err
}

// handBlock assembles a block from explicit code lengths and body bytes.
func handBlock(lens map[int]uint8, body ...byte) []byte {
	blk := make([]byte, tableBytes, tableBytes+len(body))
	for s, l := range lens {
		blk[s/2] |= l << (uint(s%2) * 4)
	}
	return append(blk, body...)
}

func TestDiffEntropyDecode(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	cases, accepted := 0, 0
	diff := func(label string, blk []byte, n int) {
		cases++
		if diffDecode(t, label, blk, n, r) {
			accepted++
		}
	}

	// Every payload of the encode wall round-trips, at the right length and
	// at lengths the block's runs overflow or fall short of.
	payloads := diffPayloads()
	for i, src := range payloads {
		blk := refEncode(nil, src)
		diff("valid block", blk, len(src))
		if len(src) > 4096 {
			continue
		}
		for _, n := range []int{len(src) - 1, len(src) + 1, len(src) / 2, 2 * len(src)} {
			if n >= 0 && i%3 == 0 {
				diff("wrong output length", blk, n)
			}
		}
	}

	// Every truncation length of a short block, with and without padding.
	short := refEncode(nil, []byte{0, 0, 0, 9, 8, 0, 0, 7, 0, 0, 0, 0, 1, 2, 3, 0, 0})
	for n := 0; n <= len(short); n++ {
		diff("truncation", short[:n], 17)
		diff("truncation + zero padding", append(append([]byte(nil), short[:n]...), 0, 0, 0, 0, 0, 0, 0, 0, 0), 17)
	}

	// Hand-built tables, each with the verdict both decoders must reach.
	hand := func(label string, accept bool, blk []byte, n int) {
		before := accepted
		diff(label, blk, n)
		if (accepted > before) != accept {
			t.Fatalf("%s: accepted = %v, want %v", label, !accept, accept)
		}
	}
	oversubscribed := map[int]uint8{}
	for s := 0; s < numSymbols; s++ {
		oversubscribed[s] = 1
	}
	hand("oversubscribed table", false, handBlock(oversubscribed, 0, 0), 4)
	hand("barely oversubscribed table", false, handBlock(map[int]uint8{1: 1, 2: 2, 3: 2, 4: 15}, 0, 0), 4)
	hand("empty table", false, handBlock(nil, 0xff, 0xff), 4)
	hand("single symbol", true, handBlock(map[int]uint8{7: 1}, 0x00), 8)
	hand("single symbol fed a 1 bit", false, handBlock(map[int]uint8{7: 1}, 0x10), 8)
	hand("single symbol, stream short", false, handBlock(map[int]uint8{7: 1}, 0x00), 9)
	incomplete := map[int]uint8{5: 2, 6: 2} // codes 00 and 01; 1x matches nothing
	hand("incomplete table, coded bits", true, handBlock(incomplete, 0b00_01_00_01), 4)
	hand("incomplete table, uncoded bits", false, handBlock(incomplete, 0b00_01_10_00), 4)
	runs := map[int]uint8{1: 1, symZeroRun: 1} // 0 = literal 1; 1 + 8 bits = a zero run
	hand("zero-length run", false, handBlock(runs, 0b1_0000000, 0b0_0000000), 4)
	hand("run overflowing the output", false, handBlock(runs, 0b1_0000010, 0b1_0000000), 4)
	hand("run filling the output", true, handBlock(runs, 0b1_0000010, 0b0_0000000), 4)
	hand("run length cut short", false, handBlock(runs, 0b0_0_0_1_0000), 7)
	// Lengths 1..15 plus a second 15: a complete code whose longest members
	// are 14 or 15 ones — past the primary table, through the slow path.
	long := map[int]uint8{16: 15}
	for s := 1; s <= 15; s++ {
		long[s] = uint8(s)
	}
	hand("15-bit codes", true, handBlock(long, 0xff, 0xfe, 0xff, 0xff, 0x7f, 0xf8), 5)
	hand("15-bit code cut short", false, handBlock(long, 0xff, 0x7f), 2)

	// Seeded bit flips in the table and the body of valid blocks — the
	// skewed ones included, so damaged 12-15-bit codes reach the slow path —
	// and bursts of random garbage over either.
	bases := [][]byte{
		skewed(18, r), skewed(21, r),
		payloads[10], payloads[15], payloads[20],
	}
	for len(bases) < 12 {
		b := make([]byte, 200+r.Intn(1800))
		for i := range b {
			if r.Float64() < 0.4 {
				b[i] = byte(r.Intn(1 + r.Intn(255)))
			}
		}
		bases = append(bases, b)
	}
	for _, src := range bases {
		blk := refEncode(nil, src)
		for trial := 0; trial < 1650; trial++ {
			mut := append([]byte(nil), blk...)
			switch trial % 4 {
			case 0: // one bit in the table
				mut[r.Intn(tableBytes)] ^= 1 << uint(r.Intn(8))
			case 1: // one bit in the body
				mut[tableBytes+r.Intn(len(mut)-tableBytes)] ^= 1 << uint(r.Intn(8))
			case 2: // a few bits anywhere
				for k := 1 + r.Intn(4); k > 0; k-- {
					mut[r.Intn(len(mut))] ^= 1 << uint(r.Intn(8))
				}
			case 3: // a burst of garbage, sometimes cut short
				at := r.Intn(len(mut))
				r.Read(mut[at:min(len(mut), at+1+r.Intn(16))])
				if r.Intn(4) == 0 {
					mut = mut[:tableBytes+r.Intn(len(mut)-tableBytes+1)]
				}
			}
			diff("mutation", mut, len(src))
		}
	}
	for trial := 0; trial < 1000; trial++ {
		junk := make([]byte, r.Intn(600))
		r.Read(junk)
		diff("garbage", junk, r.Intn(512))
	}

	if cases < 20000 {
		t.Fatalf("only %d differential decode cases, want at least 20000", cases)
	}
	if accepted < cases/20 || accepted > cases*19/20 {
		t.Fatalf("%d of %d cases accepted: the wall is not exercising both verdicts", accepted, cases)
	}
	t.Logf("%d differential decode cases, %d accepted by both decoders", cases, accepted)
}

// codedBlock codes toks under the code lengths lens into a block: a token
// below symZeroRun is that literal, symZeroRun+r a zero run of length r —
// any 8-bit r, 0 included. It returns the block and the output length the
// tokens make.
func codedBlock(lens map[int]uint8, toks []int) ([]byte, int) {
	var l [numSymbols]uint8
	for s, v := range lens {
		l[s] = v
	}
	codes := refCanonicalCodes(&l)
	w := refBitWriter{dst: handBlock(lens)}
	n := 0
	for _, tok := range toks {
		sym := min(tok, symZeroRun)
		w.write(uint32(codes[sym]), int(l[sym]))
		if sym == symZeroRun {
			w.write(uint32(tok-symZeroRun), 8)
			n += tok - symZeroRun
		} else {
			n++
		}
	}
	return w.flush(), n
}

// seededToks draws k tokens: with probability pRun a zero run of length
// 1..maxRun, else one of the literals in lits.
func seededToks(r *rand.Rand, k int, lits []int, pRun float64, maxRun int) []int {
	toks := make([]int, k)
	for i := range toks {
		if r.Float64() < pRun {
			toks[i] = symZeroRun + 1 + r.Intn(maxRun)
		} else {
			toks[i] = lits[r.Intn(len(lits))]
		}
	}
	return toks
}

// TestDiffEntropyDecodeBurst is the decode wall's rows for the burst path —
// the table entries that resolve a literal or a run of 1-maxBurstRun with
// its length, four per refill: each block below goes through diffDecode,
// against the reference at seeded window sizes, with the verdict it must
// reach.
func TestDiffEntropyDecodeBurst(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	check := func(label string, accept bool, blk []byte, n int) {
		t.Helper()
		if got := diffDecode(t, label, blk, n, r); got != accept {
			t.Fatalf("%s: accepted = %v, want %v", label, got, accept)
		}
	}

	// Code tables that put the run code and the literals at the fast
	// table's edges. The run code's 8-bit length fits a lookup when the
	// code is at most peekBits-8 bits long: 3 bits do, 4 do not.
	runFits := map[int]uint8{symZeroRun: peekBits - 8, 1: 1, 2: 2, 3: 3}
	runLong := map[int]uint8{1: 1, 2: 2, 3: 3, 4: peekBits - 7, symZeroRun: peekBits - 7}
	// A 1-bit run code, literals of 2..10 bits, one of exactly peekBits
	// bits and two of peekBits+1, which only the slow path resolves.
	edges := map[int]uint8{symZeroRun: 1, 10: peekBits, 11: peekBits + 1, 12: peekBits + 1}
	for s := 1; s <= 9; s++ {
		edges[s] = uint8(s + 1)
	}
	tables := []struct {
		name string
		lens map[int]uint8
		lits []int
	}{
		{"run code fits a lookup", runFits, []int{1, 2, 3}},
		{"run code one bit too long", runLong, []int{1, 2, 3, 4}},
		{"literals at the table width", edges, []int{1, 5, 9, 10, 10, 11, 11, 12, 12}},
	}

	type block struct {
		b []byte
		n int
	}
	var valid []block
	for _, tb := range tables {
		for _, maxRun := range []int{8, 9, 12, 255} {
			blk, n := codedBlock(tb.lens, seededToks(r, 1500, tb.lits, 0.3, maxRun))
			check(fmt.Sprintf("%s, runs up to %d", tb.name, maxRun), true, blk, n)
			valid = append(valid, block{blk, n})
		}
	}

	// Runs of exactly maxBurstRun and maxBurstRun+1, the longest a lookup
	// resolves and the shortest it escapes, from the hand tables and from
	// the encoder's own tables.
	for _, run := range []int{maxBurstRun, maxBurstRun + 1} {
		for _, tb := range tables {
			toks := seededToks(r, 800, tb.lits, 0, 1)
			for i := 0; i < len(toks); i += 1 + r.Intn(3) {
				toks[i] = symZeroRun + run
			}
			blk, n := codedBlock(tb.lens, toks)
			check(fmt.Sprintf("%s, runs of %d", tb.name, run), true, blk, n)
		}
		src := make([]byte, 0, 4096)
		for len(src) < 4000 {
			src = append(src, byte(1+r.Intn(255)), byte(1+r.Intn(3)))
			src = append(src, make([]byte, run)...)
		}
		check(fmt.Sprintf("encoded runs of %d", run), true, refEncode(nil, src), len(src))
	}

	// A zero-length run, and a run longer than the output left, each after
	// enough literals that the burst is running when it comes up.
	for _, tb := range tables {
		head := seededToks(r, 200, tb.lits, 0.2, 8)
		tail := seededToks(r, 100, tb.lits, 0.2, 8)
		blk, n := codedBlock(tb.lens, append(append(slices.Clone(head), symZeroRun), tail...))
		check(tb.name+", zero-length run", false, blk, n)
		_, before := codedBlock(tb.lens, head)
		blk, n = codedBlock(tb.lens, append(append(slices.Clone(head), symZeroRun+200), tail...))
		check(tb.name+", run overflowing the output", false, blk, before+100)
		check(tb.name+", run filling the output", true, blk, n)
	}

	// Every truncation of a block, bare and zero-padded: cuts that land
	// inside a four-code burst, on and off byte boundaries of its codes.
	for _, v := range valid[:3] {
		for cut := tableBytes; cut < len(v.b); cut += 1 + r.Intn(3) {
			check("truncated", false, v.b[:cut], v.n)
			diffDecode(t, "truncated + zero padding", append(slices.Clone(v.b[:cut]), make([]byte, 9)...), v.n, r)
		}
	}

	// Windows of every size up to two bursts: each ends 1-31 bytes short of
	// a burst boundary somewhere, and runs straddle its end.
	for i, v := range valid {
		want := make([]byte, v.n)
		if err := refDecode(want, v.b); err != nil {
			t.Fatal(err)
		}
		for size := 1; size <= 2*burstBytes+1; size++ {
			got, err := windowedDecode(v.b, v.n, func() int { return size })
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("block %d in windows of %d: %v, or bytes differ from the reference", i, size, err)
			}
		}
	}
}

// FuzzEntropyDecodeDiff feeds arbitrary bytes to both decoders as a block
// for an arbitrary output length.
func FuzzEntropyDecodeDiff(f *testing.F) {
	for _, src := range testInputs() {
		f.Add(refEncode(nil, src), uint16(len(src)))
	}
	f.Add(refEncode(nil, skewed(20, rand.New(rand.NewSource(1)))), uint16(0))
	f.Fuzz(func(t *testing.T, blk []byte, n uint16) {
		diffDecode(t, "fuzz", blk, int(n)%8192, rand.New(rand.NewSource(int64(n))))
	})
}
