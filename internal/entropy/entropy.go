// Package entropy implements the byte-oriented lossless stage of the
// removed Entropy stash technique: a zero-run-length transform (DNN
// activation payloads are dominated by zero bytes) followed by a canonical
// Huffman code over the resulting 257-symbol alphabet. No codec path calls
// it any more; it stays, with its tests, until the package itself is
// deleted. Blocks are self-contained —
// each carries its own code-length table — so the chunked codec can
// compress and decompress chunks independently and in parallel, and a
// block's bytes depend only on its input, never on worker count.
//
// The coder is deterministic end to end: histogram ties break by symbol
// index, code lengths are limited to maxCodeLen by count scaling, and the
// canonical assignment orders by (length, symbol). Decode is fully
// bounds-checked and returns typed errors on malformed input; it never
// panics, whatever the bytes.
//
// Encoding is two passes because the histogram fixes a block's size to the
// byte before a single code is written. Plan reads the block's FP32 input
// once: it DPR-packs it a stack window at a time, turns each window into
// zero-run-length tokens in a caller-owned buffer and counts them in the
// same loop, then builds the code table and returns the exact block length.
// Emit codes those tokens into a buffer of exactly that length, so a caller
// can lay every block of a stream out in its final place and fill them in
// parallel; no packed copy of the input exists at any point. Encode runs
// both passes over arbitrary bytes. Decoding resolves a literal, or a zero
// run of up to eight bytes together with its length, per table lookup, four
// lookups per 64-bit refill and one 8-byte store per lookup; the rare
// longer runs and longer codes take a careful one-code path. It is
// resumable, so a block can be drained a window at a time into a small
// buffer.
package entropy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"gist/internal/floatenc"
)

const (
	// numSymbols is the ZRL alphabet: byte literals 0-255 plus the
	// zero-run symbol.
	numSymbols = 257
	// symZeroRun announces a run of zero bytes; its code is followed by 8
	// raw bits holding the run length (1-255).
	symZeroRun = 256
	// maxRun caps a single zero-run symbol's length at what 8 raw bits
	// express; longer runs split.
	maxRun = 255
	// maxCodeLen bounds Huffman code lengths so the decoder's canonical
	// tables stay small and a hostile table cannot demand absurd codes.
	maxCodeLen = 15
	// tableBytes is the nibble-packed code-length table leading every
	// block: 257 4-bit lengths.
	tableBytes = (numSymbols + 1) / 2
	// peekBits is the width of the decoder's fast table: every literal
	// code of at most this many bits resolves in one lookup, and so does a
	// run code of at most peekBits-8 bits with the length behind it; the
	// rare longer codes (up to maxCodeLen) fall back to the canonical
	// first/offset/count search. 2^11 uint16 entries keep the table at
	// 4 KB, inside L1.
	peekBits = 11

	// TableBytes is the fixed per-block table overhead, exported for
	// planning-time size models.
	TableBytes = tableBytes
)

// ErrCorrupt reports a malformed or truncated entropy block.
var ErrCorrupt = errors.New("entropy: corrupt block")

// MaxEncodedLen bounds Encode's output for n input bytes: the table, plus
// in the worst case every byte as a literal at the maximum code length.
func MaxEncodedLen(n int) int {
	return tableBytes + (n*maxCodeLen+7)/8 + 8
}

// Encode appends the compressed block for src to dst and returns the
// extended slice. The block is self-contained; Decode needs only the block
// bytes and the original length. Encoding an empty src appends nothing.
func Encode(dst []byte, src []byte) []byte {
	z := tokenizer{toks: []byte{streamHead}}
	var words [windowBytes / 4]uint32
	for off := 0; off < len(src); off += windowBytes {
		win := src[off:min(off+windowBytes, len(src))]
		clear(words[:])
		for i, b := range win {
			words[i/4] |= uint32(b) << (uint(i%4) * 8)
		}
		z.add(words[:], len(win))
	}
	var table [tableBytes]byte
	size := z.plan(table[:])
	base := len(dst)
	dst = slices.Grow(dst, size)[:base+size]
	copy(dst[base:], table[:])
	Emit(dst[base:], z.toks)
	return dst
}

// Plan is the first encode pass over one block. It DPR-packs xs at format f
// a window at a time — the block's input is the packed words' little-endian
// bytes, exactly the bytes a whole-slice pack would hold — and tokenises
// each window into toks's backing array, which it grows when it is short.
// It writes the code table into table[:TableBytes] and returns the block's
// exact length in bytes, table included, with the token stream Emit codes.
// Planning no elements writes no table and returns 0.
func Plan(table, toks []byte, f floatenc.Format, xs []float32) (int, []byte) {
	z := tokenizer{toks: append(toks[:0], streamHead)}
	vpw := f.ValuesPerWord()
	var words [windowBytes / 4]uint32
	for len(xs) > 0 {
		m := min(len(xs), len(words)*vpw)
		k := (m + vpw - 1) / vpw
		clear(words[:k])
		win := floatenc.Packed{Format: f, N: m, Words: words[:k]}
		win.EncodeRange(xs, 0, m)
		z.add(words[:k], 4*k)
		xs = xs[m:]
	}
	return z.plan(table), z.toks
}

// Emit is the second encode pass. block must have exactly the length Plan
// returned and hold Plan's table in its first TableBytes bytes, and toks
// must be the token stream Plan returned with it; Emit fills in the rest of
// the block. Blocks of one stream can be emitted concurrently, each into
// its own range.
func Emit(block, toks []byte) {
	if len(block) == 0 {
		return
	}
	// codes[token] = bits << 5 | bit count, one load per token: a literal's
	// canonical code, or the run symbol's code followed by the 8-bit length.
	// codes[symZeroRun], a run of length 0, is the stream's padding and
	// codes to nothing.
	var lens [numSymbols]uint8
	readLengths(&lens, block)
	var cc canonical
	cc.init(&lens)
	var codes [numSymbols + maxRun]uint32
	for s, l := range lens {
		if l > 0 {
			codes[s] = cc.first[l]<<5 | uint32(l)
			cc.first[l]++
		}
	}
	runCode, runLen := codes[symZeroRun]>>5<<8, codes[symZeroRun]&31+8
	for r := uint32(1); r <= maxRun; r++ {
		codes[symZeroRun+r] = (runCode|r)<<5 | runLen
	}
	codes[symZeroRun] = 0

	// MSB-first through a 64-bit accumulator drained to under a byte after
	// every store. Every token byte is coded on its own, without a branch and
	// without waiting for the one before it to be parsed: a byte after a 0x00
	// is a run length, as run lengths are never 0. A literal's code is at
	// most maxCodeLen = 15 bits and a run's 23 over two bytes, so three bytes
	// make at most 15+15+23 bits, which fit beside 7 leftover bits: each
	// store writes the codes of three bytes.
	body := block[tableBytes:]
	var acc uint64
	nacc, pos := uint(0), 0
	rest := toks // rest[0] is the byte before the next one to code
	for len(rest) >= 8 && pos+8 <= len(body) {
		v := binary.LittleEndian.Uint64(rest)
		rest = rest[3:]
		b0, b1, b2, b3 := v>>8&0xff, v>>16&0xff, v>>24&0xff, v>>32&0xff
		c0 := byteCode(&codes, zeroMask(v&0xff), b0, b1)
		c1 := byteCode(&codes, zeroMask(b0), b1, b2)
		c2 := byteCode(&codes, zeroMask(b1), b2, b3)
		l1, l2 := uint(c1&31), uint(c2&31)
		l := uint(c0&31) + l1 + l2
		acc = acc<<(l&63) | (uint64(c0>>5)<<l1|uint64(c1>>5))<<l2 | uint64(c2>>5)
		nacc += l
		// Store all of it, keep the whole bytes: no branch on the bit
		// count. The bytes stored beyond are zeros a later store
		// overwrites, or the block's final padding.
		binary.BigEndian.PutUint64(body[pos:], acc<<((64-nacc)&63))
		pos += int(nacc >> 3)
		nacc &= 7
	}
	for ; len(rest) >= padBytes+2; rest = rest[1:] { // the block's last bytes: no room to overshoot
		c := byteCode(&codes, zeroMask(uint64(rest[0])), uint64(rest[1]), uint64(rest[2]))
		acc = acc<<(c&31) | uint64(c>>5)
		for nacc += uint(c & 31); nacc >= 8; pos++ {
			nacc -= 8
			body[pos] = byte(acc >> nacc)
		}
	}
	if nacc > 0 {
		body[pos] = byte(acc << (8 - nacc)) // padded with zero bits
		pos++
	}
	if pos != len(body) {
		panic(fmt.Sprintf("entropy: emitted %d body bytes into a block planned for %d", pos, len(body)))
	}
}

// byteCode returns the code of token byte b, given the byte after it and
// the zeroMask of the byte before it: the literal b, the run a 0x00
// announces, whose length is the byte after, or nothing for that length.
func byteCode(codes *[numSymbols + maxRun]uint32, prevZero, b, next uint64) uint32 {
	return codes[(b+(symZeroRun+next)&zeroMask(b))&(numSymbols+maxRun-1)] &^ uint32(prevZero)
}

// zeroMask is all ones when the byte b is 0 and 0 otherwise.
func zeroMask(b uint64) uint64 {
	return (b+0xff)>>8 - 1
}

// Decode decompresses a block produced by Encode into dst, which must have
// exactly the original input's length. It returns an error wrapping
// ErrCorrupt when the block is malformed, truncated, or disagrees with
// len(dst).
func Decode(dst []byte, src []byte) error {
	var d Decoder
	if err := d.Init(src, len(dst)); err != nil {
		return err
	}
	return d.Read(dst)
}

// tokenizer is the zero-run-length transform, run once per block: it walks
// the block's input bytes as they arrive, writes one token per symbol into
// toks and counts the symbols. A nonzero byte is a literal, one byte holding
// its value; zero bytes accumulate into a run that ends at the next nonzero
// byte, at maxRun or with the input, and becomes two bytes, 0x00 and the
// length. Every nonzero input byte is one literal token and every run is
// counted as it is written, so the counts are the token stream's; Emit
// panics if the tokens do not fill the block those counts sized.
type tokenizer struct {
	toks []byte
	run  int // length of the zero run open where the last window ended
	runs int // zero-run tokens made so far: one symbol, whatever the length
	// lits[p] counts the input bytes at byte p of a word: the literals, and
	// in slot 0 the zero bytes, which are never literals. Four tables, so
	// consecutive bytes never wait on each other's count.
	lits [4][256]uint32
}

// A token stream opens with the nonzero streamHead, so every token byte has
// a byte before it, and closes with padBytes zero bytes, which code to
// nothing, so Emit can load eight bytes from anywhere in it.
const (
	streamHead = 1
	padBytes   = 8
)

// windowBytes is how much input one add covers. A window's tokens take at
// most 1.5 bytes per input byte (a literal after every one-byte run) plus a
// run carried in and its maxRun splits; add reserves windowToks for them and
// for the 8-byte stores that run past its count.
const (
	windowBytes = 1024
	windowToks  = 2 * windowBytes
)

// wordShape is what the zero pattern of one 32-bit word makes of it. The
// word's first nonzero byte closes the open run, grown by the lead zero
// bytes; from there on its bytes up to the last nonzero one go out as they
// are, except that an inner gap of one zero byte becomes the run [0x00 0x01]
// — the bytes from the gap on move up one — and a gap of two becomes
// [0x00 0x02]; the trail zero bytes open the next run. A word of zeros
// makes nothing and keeps the run open.
type wordShape struct {
	low, add    uint64 // v&low | (v&^low)<<8 | add rewrites the word from its first nonzero byte
	lead, trail int    // zero bytes before the first and after the last nonzero byte
	n, gaps     int    // bytes and runs the rewritten word takes
	lit, keep   int    // 1, 0 for a word with a nonzero byte; 0, -1 (keep the run) for a zero word
}

// shapes is indexed by zeroBytes(w).
var shapes = func() (shapes [16]wordShape) {
	for m := range shapes {
		s := &shapes[m]
		s.low = ^uint64(0)
		if m == 15 {
			s.lead, s.trail, s.keep = 4, 4, -1
			continue
		}
		for m>>s.lead&1 == 1 {
			s.lead++
		}
		for m>>(3-s.trail)&1 == 1 {
			s.trail++
		}
		s.lit, s.n = 1, 4-s.lead-s.trail
		for k := 1; k < s.n; k++ { // k counts from the first nonzero byte
			if m>>(s.lead+k)&1 == 0 {
				continue
			}
			s.gaps = 1
			if m>>(s.lead+k+1)&1 == 1 {
				s.add = 2 << (8 * (k + 1))
			} else {
				s.low, s.add = 1<<(8*(k+1))-1, 1<<(8*(k+1))
				s.n++
			}
			break
		}
	}
	return shapes
}()

// zeroBytes returns the 4-bit mask of w's zero bytes, bit k for byte k.
func zeroBytes(w uint32) uint32 {
	nz := (w&0x7f7f7f7f + 0x7f7f7f7f | w) & 0x80808080 // the top bit of each nonzero byte
	return ((nz ^ 0x80808080) >> 7 * 0x204081) >> 21 & 15
}

// add tokenises the first n ≤ windowBytes bytes of words' little-endian
// serialisation. Every window but a block's last covers whole words.
//
// Whether one activation is zero and the next is not is close to a coin
// flip, so a word's tokens are not found by branching on its bytes: its zero
// pattern selects a shape, the tokens are the word shifted and masked per
// the shape and stored eight bytes at a time, and arithmetic on a 0-or-1
// flag moves the cursor past the run the word closes. The branches left are
// predictable ones: two zero words in a row, common in the long runs of
// sparse maps and rare in a half-sparse one, which skip the step; a run
// reaching maxRun, which the open run, at most maxRun-1 long, does at most
// once a word; and a block's ragged last word.
func (z *tokenizer) add(words []uint32, n int) {
	toks := z.toks
	if cap(toks)-len(toks) < windowToks {
		// Grow by an eighth, not append's quarter: the buffer is kept for
		// the next encode, so its slack stays allocated.
		toks = append(make([]byte, 0, len(toks)+len(toks)/8+windowToks), toks...)
	}
	t := toks[len(toks):cap(toks)]
	nt, run, runs := 0, z.run, z.runs
	lits := &z.lits
	ws := words[:n/4]
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		if i+1 < len(ws) && w|ws[i+1] == 0 && run < maxRun-8 {
			run += 8
			i++
			continue
		}
		lits[0][w&0xff]++
		lits[1][w>>8&0xff]++
		lits[2][w>>16&0xff]++
		lits[3][w>>24]++
		s := &shapes[zeroBytes(w)]
		if run+s.lead >= maxRun { // the run reaches maxRun in the word's lead zeros
			t[nt], t[nt+1] = 0, maxRun
			nt, runs, run = nt+2, runs+1, run-maxRun
		}
		open := run + s.lead
		flush := (open + 0xff) >> 8 & s.lit // 1 when the word closes a run
		v := uint64(w) >> (8 * s.lead & 63)
		v = v&s.low | (v&^s.low)<<8 | s.add
		binary.LittleEndian.PutUint64(t[nt:], v<<(16*flush&63)|uint64(open*flush)<<8)
		nt += 2*flush + s.n
		runs += flush + s.gaps
		run = s.trail + run&s.keep
	}
	if nb := n % 4; nb > 0 { // a ragged last word, a byte at a time
		for w := words[n/4]; nb > 0; nb, w = nb-1, w>>8 {
			b := byte(w)
			lits[0][b]++
			if b == 0 {
				if run++; run == maxRun {
					t[nt], t[nt+1] = 0, maxRun
					nt, runs, run = nt+2, runs+1, 0
				}
				continue
			}
			if run > 0 {
				t[nt], t[nt+1] = 0, byte(run)
				nt, runs, run = nt+2, runs+1, 0
			}
			t[nt] = b
			nt++
		}
	}
	z.toks, z.run, z.runs = toks[:len(toks)+nt], run, runs
}

// plan closes the block: it emits the run still open and the stream's
// padding, writes the code table into table[:TableBytes] and returns
// the block's exact length. A block with no input returns 0.
func (z *tokenizer) plan(table []byte) int {
	if len(z.toks) == 1 && z.run == 0 {
		return 0
	}
	if z.run > 0 {
		z.toks = append(z.toks, 0, byte(z.run))
		z.runs++
	}
	z.toks = append(z.toks, make([]byte, padBytes)...)
	var syms [numSymbols]int
	for _, lits := range &z.lits {
		for s, c := range lits[1:] {
			syms[1+s] += int(c)
		}
	}
	syms[symZeroRun] = z.runs
	lens := codeLengths(&syms)
	bits := 8 * syms[symZeroRun]
	for s, c := range syms {
		bits += c * int(lens[s])
	}
	clear(table[:tableBytes])
	for s, l := range lens {
		table[s/2] |= l << (uint(s%2) * 4)
	}
	return tableBytes + (bits+7)/8
}

// codeLengths computes length-limited Huffman code lengths for the
// histogram: plain Huffman, retried with halved counts until the longest
// code fits maxCodeLen — halving terminates because all-equal counts yield
// a balanced tree of depth 9 < maxCodeLen.
func codeLengths(hist *[numSymbols]int) [numSymbols]uint8 {
	counts := *hist
	for {
		lens, longest := huffmanLengths(&counts)
		if longest <= maxCodeLen {
			return lens
		}
		for s, c := range counts {
			if c > 0 {
				counts[s] = (c + 1) / 2
			}
		}
	}
}

// huffmanLengths builds one Huffman tree over the nonzero-count symbols and
// returns the per-symbol code lengths (0 for absent symbols) and the
// longest. A single present symbol gets length 1.
//
// The tree is the one a priority queue ordered by (weight, creation order)
// builds when leaves are created in symbol order — the order that makes the
// stream deterministic — found here without a heap: with the leaves sorted
// by (count, symbol), the two lightest live nodes are always at the head of
// the leaf queue or of the internal-node queue, because merged weights
// never decrease; a leaf wins a tie against an internal node, as every leaf
// was created first. All storage is fixed-size and on the stack.
func huffmanLengths(counts *[numSymbols]int) (lens [numSymbols]uint8, longest uint8) {
	// count << 9 | symbol: one integer sort orders by (count, symbol).
	var leaves [numSymbols]uint64
	k := 0
	for s, c := range counts {
		if c > 0 {
			leaves[k] = uint64(c)<<9 | uint64(s)
			k++
		}
	}
	if k == 1 {
		lens[leaves[0]&0x1ff] = 1
		return lens, 1
	}
	slices.Sort(leaves[:k])
	// Nodes [0, k) are the sorted leaves, [k, 2k-1) the internal nodes in
	// creation order; the last one is the root.
	var weight [2 * numSymbols]int
	var parent [2 * numSymbols]uint16
	for i := 0; i < k; i++ {
		weight[i] = int(leaves[i] >> 9)
	}
	leaf, inner := 0, k
	for next := k; next < 2*k-1; next++ {
		for j := 0; j < 2; j++ {
			pick := inner
			if leaf < k && (inner == next || weight[leaf] <= weight[inner]) {
				pick = leaf
				leaf++
			} else {
				inner++
			}
			weight[next] += weight[pick]
			parent[pick] = uint16(next)
		}
	}
	// A parent is always created after its children, so one descending
	// sweep sees every node's parent depth before the node's own. Depths
	// fit a byte: a leaf at depth d needs a total count of at least
	// Fibonacci(d), far beyond an int at d = 255.
	var depth [2 * numSymbols]uint8
	for i := 2*k - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	for i := 0; i < k; i++ {
		lens[leaves[i]&0x1ff] = depth[i]
		longest = max(longest, depth[i])
	}
	return lens, longest
}

// readLengths unpacks a block's nibble-packed code-length table.
func readLengths(lens *[numSymbols]uint8, table []byte) {
	for s := range lens {
		lens[s] = table[s/2] >> (uint(s%2) * 4) & 0xf
	}
}

// canonical is the canonical-code geometry of a length table: symbols sort
// by (length, symbol index) and codes count up MSB-first per length, so
// length l owns the codes [first[l], first[l]+count[l]) and its symbols
// start at position offset[l] of that order.
type canonical struct {
	first, count, offset [maxCodeLen + 1]uint32
}

func (c *canonical) init(lens *[numSymbols]uint8) {
	*c = canonical{}
	for _, l := range lens {
		c.count[l]++
	}
	c.count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		c.first[l] = (c.first[l-1] + c.count[l-1]) << 1
		c.offset[l] = c.offset[l-1] + c.count[l-1]
	}
}

// Decoder decompresses one block, all at once or a window at a time. The
// zero value is ready for Init; a Decoder holds no heap memory of its own
// and is meant to live on the caller's stack.
type Decoder struct {
	// fast resolves the next peekBits of the stream. A resolved entry is
	// literal << 8 | count << 4 | bits: bits stream bits make count output
	// bytes, the first of which is literal and the rest zeros — a literal
	// code of at most peekBits bits (count 1), or a run code short enough
	// that its 8-bit length fits in the lookup too, with that length when it
	// is 1-8 (literal 0). An escape entry has count 0 and bits the length of
	// the run code it starts, or bits 0 where a longer code (or none)
	// starts.
	fast [1 << peekBits]uint16
	canonical
	// syms lists the coded symbols in canonical order, for the slow path.
	syms [numSymbols]uint16

	body []byte
	pos  int    // next body byte to load into acc
	acc  uint64 // unconsumed bits, MSB-aligned; zero beyond the stream's end
	nacc int    // how many of acc's leading bits are loaded stream bits
	run  int    // zero bytes of a decoded run the next Read still owes
	left int    // bytes of output not yet read
}

// A resolved entry makes at most maxBurstRun bytes, so burstCodes of them
// fill at most burstBytes of output; they take at most burstCodes*peekBits
// = 44 bits, fewer than the 56 a refill guarantees.
const (
	maxBurstRun = 8
	burstCodes  = 4
	burstBytes  = burstCodes * maxBurstRun
)

// Init prepares d to decompress block into n bytes of output. It returns an
// error wrapping ErrCorrupt when the block cannot be one Encode produced
// for n bytes: no room for the code table, a table that oversubscribes the
// code space or codes nothing, bytes for an empty output.
func (d *Decoder) Init(block []byte, n int) error {
	*d = Decoder{left: n}
	if n == 0 {
		if len(block) != 0 {
			return fmt.Errorf("%w: %d bytes for empty output", ErrCorrupt, len(block))
		}
		return nil
	}
	if len(block) < tableBytes {
		return fmt.Errorf("%w: %d bytes, need %d for the code table", ErrCorrupt, len(block), tableBytes)
	}
	d.body = block[tableBytes:]
	var lens [numSymbols]uint8
	readLengths(&lens, block)
	d.canonical.init(&lens)
	// Kraft check: a decodable table must not oversubscribe the code space
	// (an incomplete table is tolerated; unused codes surface as ErrCorrupt
	// at read time).
	kraft, coded := uint32(0), uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		kraft += d.count[l] << uint(maxCodeLen-l)
		coded += d.count[l]
	}
	if kraft > 1<<maxCodeLen {
		return fmt.Errorf("%w: oversubscribed code table", ErrCorrupt)
	}
	if coded == 0 {
		return fmt.Errorf("%w: empty code table", ErrCorrupt)
	}
	next := d.first
	for s, l := range lens {
		if l == 0 {
			continue
		}
		code := next[l]
		next[l]++
		d.syms[d.offset[l]+code-d.first[l]] = uint16(s)
		if l > peekBits {
			continue
		}
		span := d.fast[code<<(peekBits-l) : (code+1)<<(peekBits-l)]
		if s != symZeroRun {
			fill(span, uint16(s)<<8|1<<4|uint16(l))
			continue
		}
		fill(span, uint16(l)) // an escape: the run's length is read apart
		if l+8 > peekBits {
			continue
		}
		step := 1 << (peekBits - l - 8)
		for run := 1; run <= maxBurstRun; run++ {
			fill(span[run*step:(run+1)*step], uint16(run)<<4|uint16(l+8))
		}
	}
	return nil
}

// fill sets every entry of span to entry.
func fill(span []uint16, entry uint16) {
	for i := range span {
		span[i] = entry
	}
}

// Read decompresses the next len(p) bytes of the block's output into p.
// Reads of any sizes summing to Init's n yield the same bytes, and the same
// accept-or-reject verdict, as one Read of n. An error wraps ErrCorrupt and
// leaves p's contents unspecified; the Decoder is not usable afterwards.
func (d *Decoder) Read(p []byte) error {
	if len(p) > d.left {
		return fmt.Errorf("%w: read of %d bytes with %d left in the block", ErrCorrupt, len(p), d.left)
	}
	out := min(d.run, len(p))
	clear(p[:out])
	d.run -= out

	// The accumulator keeps its unconsumed bits MSB-aligned and is topped
	// up eight bytes at a time. nacc counts loaded stream bits only: past
	// the end of the body acc reads as zeros, and a symbol resolved from
	// that padding drives nacc negative — which is how truncation is
	// detected, so padding is never accepted as data.
	tab := &d.fast
	body, pos, acc, nacc := d.body, d.pos, d.acc, d.nacc
	for out < len(p) {
		out, pos, acc, nacc = burst(tab, p, out, body, pos, acc, nacc)
		if out == len(p) {
			break
		}
		// One code the careful way: an escape entry (a run the lookup did
		// not resolve, a code longer than peekBits, no code), or any code
		// in a window's last burstBytes or the body's last eight bytes.
		if nacc < maxCodeLen+8 {
			if pos+8 <= len(body) {
				acc |= binary.BigEndian.Uint64(body[pos:]) >> uint(nacc)
				pos += (63 - nacc) >> 3
				nacc |= 56
			} else {
				for ; nacc <= 56 && pos < len(body); pos++ {
					acc |= uint64(body[pos]) << uint(56-nacc)
					nacc += 8
				}
			}
		}
		e := tab[acc>>(64-peekBits)]
		lit, run, l := byte(e>>8), int(e>>4&15), int(e&15)
		if run == 0 { // an escape
			sym := symZeroRun
			if l == 0 {
				if sym, l = d.longCode(acc); l == 0 {
					return fmt.Errorf("%w: no code matches the next %d bits", ErrCorrupt, maxCodeLen)
				}
			}
			lit, run = byte(sym), 1
			if sym == symZeroRun {
				lit, run = 0, int(acc<<uint(l)>>56)
				l += 8
			}
		}
		acc <<= uint(l)
		nacc -= l
		if nacc < 0 {
			return fmt.Errorf("%w: truncated bitstream", ErrCorrupt)
		}
		if run == 0 || run > d.left-out {
			return fmt.Errorf("%w: zero run of %d with %d bytes left", ErrCorrupt, run, d.left-out)
		}
		k := min(run, len(p)-out)
		if out+8 <= len(p) {
			// Most runs are a few bytes: one store instead of a call. The
			// zeros beyond the run are overwritten by what follows.
			binary.LittleEndian.PutUint64(p[out:], uint64(lit))
			if k > 8 {
				clear(p[out+8 : out+k])
			}
		} else {
			p[out] = lit
			clear(p[out+1 : out+k])
		}
		out += k
		d.run = run - k
	}
	d.pos, d.acc, d.nacc = pos, acc, nacc
	d.left -= len(p)
	return nil
}

// burst is Read's fast path. With eight body bytes and burstBytes of
// output to spare, one refill loads at least 56 stream bits and feeds
// burstCodes resolved entries, each one 8-byte store — a literal and seven
// zeros, or a run — that the next store overwrites beyond its count. They
// cannot run out of bits or past the output, so they check for neither. It
// returns the cursors where it met an escape entry or ran out of room.
//
// The four entries are written out rather than looped over: a
// `for range burstCodes` loop with the same early exit decodes about 30 %
// slower (KernelEntropyDecode, same process; EXPERIMENTS.md).
func burst(tab *[1 << peekBits]uint16, p []byte, out int, body []byte, pos int, acc uint64, nacc int) (int, int, uint64, int) {
	for out+burstBytes <= len(p) && pos+8 <= len(body) {
		acc |= binary.BigEndian.Uint64(body[pos:]) >> uint(nacc)
		pos += (63 - nacc) >> 3
		nacc |= 56
		e := tab[acc>>(64-peekBits)]
		if e&0xf0 == 0 {
			break
		}
		out, acc, nacc = put(p, out, acc, nacc, e)
		if e = tab[acc>>(64-peekBits)]; e&0xf0 == 0 {
			break
		}
		out, acc, nacc = put(p, out, acc, nacc, e)
		if e = tab[acc>>(64-peekBits)]; e&0xf0 == 0 {
			break
		}
		out, acc, nacc = put(p, out, acc, nacc, e)
		if e = tab[acc>>(64-peekBits)]; e&0xf0 == 0 {
			break
		}
		out, acc, nacc = put(p, out, acc, nacc, e)
	}
	return out, pos, acc, nacc
}

// put stores resolved entry e's bytes at p[out:] and consumes its bits,
// returning the advanced cursors.
func put(p []byte, out int, acc uint64, nacc int, e uint16) (int, uint64, int) {
	binary.LittleEndian.PutUint64(p[out:out+8:out+8], uint64(e>>8))
	l := uint(e & 15)
	return out + int(e>>4&15), acc << l, nacc - int(l)
}

// longCode resolves a code longer than peekBits the canonical way: lengthen
// it until it lands in a populated length class. A length of 0 reports that
// no code matches.
func (d *Decoder) longCode(acc uint64) (sym, l int) {
	for l = peekBits + 1; l <= maxCodeLen; l++ {
		if i := uint32(acc>>uint(64-l)) - d.first[l]; i < d.count[l] {
			return int(d.syms[d.offset[l]+i]), l
		}
	}
	return 0, 0
}
