package entropy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// The differential wall between the table-driven kernels and the frozen
// bit-serial reference in ref_test.go: encode must be byte-equal, decode
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

func TestDiffEntropyEncode(t *testing.T) {
	sawLong := false
	for i, src := range diffPayloads() {
		want := refEncode(nil, src)
		if got := Encode(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("payload %d (%d bytes): Encode differs from the reference (%d vs %d bytes)", i, len(src), len(got), len(want))
		}
		if len(src) > 0 && longestCode(want) > peekBits {
			sawLong = true
		}
		if len(src)%4 != 0 {
			continue
		}
		// The words entry points the codec calls: exact size, then the same bytes.
		words := make([]uint32, len(src)/4)
		for w := range words {
			words[w] = binary.LittleEndian.Uint32(src[4*w:])
		}
		var table [TableBytes]byte
		size := Plan(table[:], words)
		if size != len(want) {
			t.Fatalf("payload %d: Plan says %d bytes, the reference block has %d", i, size, len(want))
		}
		blk := make([]byte, size)
		copy(blk, table[:])
		Emit(blk, words)
		if !bytes.Equal(blk, want) {
			t.Fatalf("payload %d: Plan+Emit differs from the reference", i)
		}
	}
	if !sawLong {
		t.Fatalf("no payload produced a code longer than %d bits: the length limiter went untested", peekBits)
	}
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
	win := bytes.Repeat([]byte{0x5a}, n)
	var d Decoder
	werr := d.Init(blk, n)
	for off := 0; werr == nil && off < n; {
		k := min(1+r.Intn(97), n-off)
		werr = d.Read(win[off : off+k])
		off += k
	}
	if (werr == nil) != (refErr == nil) {
		t.Fatalf("%s: windowed decode says %v, the reference %v", label, werr, refErr)
	}
	if werr == nil && !bytes.Equal(win, want) {
		t.Fatalf("%s: windowed decode accepted with different bytes than the reference", label)
	}
	return err == nil
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
