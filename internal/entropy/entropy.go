// Package entropy implements the byte-oriented lossless stage behind the
// Entropy stash technique: a zero-run-length transform (DNN activation
// payloads are dominated by zero bytes) followed by a canonical Huffman
// code over the resulting 257-symbol alphabet. Blocks are self-contained —
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
// Encoding is two phases because the histogram fixes a block's size to the
// byte before a single code is written: Plan builds the code table and
// returns the exact block length, Emit writes the block into a buffer of
// exactly that length, so a caller can lay every block of a stream out in
// its final place and fill them in parallel. Both read their input as the
// little-endian bytes of 32-bit words, the form the packed stash already
// has. Decoding resolves one symbol per table lookup and is resumable, so
// a block can be drained a window at a time into a small buffer.
package entropy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	// peekBits is the width of the decoder's primary table: every code of
	// at most this many bits resolves in one lookup; the rare longer ones
	// (up to maxCodeLen) fall back to the canonical first/offset/count
	// search. 2^11 uint16 entries keep the table at 4 KB, inside L1.
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
	words := make([]uint32, (len(src)+3)/4)
	for i, b := range src {
		words[i/4] |= uint32(b) << (uint(i%4) * 8)
	}
	var table [tableBytes]byte
	size := plan(table[:], words, len(src))
	base := len(dst)
	dst = slices.Grow(dst, size)[:base+size]
	copy(dst[base:], table[:])
	emit(dst[base:], words, len(src))
	return dst
}

// Plan is the first encode phase. It builds the code table for the block
// that compresses words (read as their little-endian bytes) into
// table[:TableBytes] and returns the block's exact length in bytes, table
// included. Planning no words writes nothing and returns 0.
func Plan(table []byte, words []uint32) int {
	return plan(table, words, 4*len(words))
}

// Emit is the second encode phase. block must have exactly the length Plan
// returned for the same words and hold Plan's table in its first TableBytes
// bytes; Emit fills in the rest. Blocks of one stream can be emitted
// concurrently, each into its own range.
func Emit(block []byte, words []uint32) {
	emit(block, words, 4*len(words))
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

// tokenizer is the zero-run-length transform both encode phases consume, so
// they cannot disagree about the symbol stream. It walks the first n bytes
// of words' little-endian serialisation a window at a time and yields one
// token per symbol: a nonzero byte is the literal token of its value; zero
// bytes accumulate into a run that ends at the next nonzero byte, at maxRun
// or with the input, and becomes the token symZeroRun+length.
type tokenizer struct {
	words []uint32
	n     int // bytes of words not yet tokenized
	run   int // length of the zero run open where the last window ended
	// toks holds one window's tokens. A literal takes a nonzero byte and a
	// run at least one zero byte, so there is at most one per input byte,
	// plus one for a run carried in from the window before; the loop writes
	// one slot ahead of the count, the slot the input's final run ends up in.
	toks [windowBytes + 2]uint16
}

// windowBytes is how much input one tokenizer window covers: it sizes the
// token buffer the encode phases keep on their stack.
const windowBytes = 1024

// next returns the tokens of the next window, or nil once the input is
// exhausted. The slice is valid until the following call.
//
// Whether one activation is zero and the next is not is close to a coin
// flip, so the per-byte step does not branch on it: both candidate tokens
// are stored every time and arithmetic on 0-or-1 flags decides how far the
// cursor moves. The branches left are predictable ones — a whole zero word
// (the long runs of sparse maps) and a run reaching maxRun.
func (z *tokenizer) next() []uint16 {
	if z.n == 0 {
		return nil
	}
	n := min(z.n, windowBytes)
	nt, run := 0, z.run
	for i := 0; 4*i < n; i++ {
		w, nb := z.words[i], min(4, n-4*i)
		if w == 0 && run < maxRun-nb {
			run += nb
			continue
		}
		for ; nb > 0; nb-- {
			b := int(w & 0xff)
			w >>= 8
			literal := (b + 0xff) >> 8   // 1 when b != 0
			pending := (run + 0xff) >> 8 // 1 when a run is open
			z.toks[nt] = uint16(symZeroRun + run)
			nt += literal & pending
			z.toks[nt] = uint16(b)
			nt += literal
			run = (run + 1) & (literal - 1) // 0 after a literal
			if run == maxRun {
				z.toks[nt] = symZeroRun + maxRun
				nt++
				run = 0
			}
		}
	}
	z.words, z.n = z.words[(n+3)/4:], z.n-n
	if z.n == 0 && run > 0 {
		z.toks[nt] = uint16(symZeroRun + run)
		nt++
	}
	z.run = run
	return z.toks[:nt]
}

func plan(table []byte, words []uint32, n int) int {
	if n == 0 {
		return 0
	}
	// Literals count at their byte value, a run of r at symZeroRun+r.
	var hist [numSymbols + maxRun]int
	z := tokenizer{words: words, n: n}
	for toks := z.next(); toks != nil; toks = z.next() {
		for _, t := range toks {
			hist[t]++
		}
	}
	syms := (*[numSymbols]int)(hist[:])
	for _, c := range hist[symZeroRun+1:] {
		syms[symZeroRun] += c
	}
	lens := codeLengths(syms)
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

func emit(block []byte, words []uint32, n int) {
	if n == 0 {
		return
	}
	// codes[token] = bits << 5 | bit count, one load per token: a literal's
	// canonical code, or the run symbol's code followed by the 8-bit length.
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

	// MSB-first through a 64-bit accumulator that is drained to under a
	// byte after every token, so it never holds more than 7 + 23 bits.
	body := block[tableBytes:]
	var acc uint64
	nacc, pos := uint(0), 0
	z := tokenizer{words: words, n: n}
	for toks := z.next(); toks != nil; toks = z.next() {
		for _, t := range toks {
			c := codes[t]
			acc = acc<<(c&31) | uint64(c>>5)
			nacc += uint(c & 31)
			if pos+8 <= len(body) {
				// Store all of it, keep the whole bytes: no branch on the
				// bit count. The bytes stored beyond are zeros a later
				// store overwrites, or the block's final padding.
				binary.BigEndian.PutUint64(body[pos:], acc<<((64-nacc)&63))
				pos += int(nacc >> 3)
				nacc &= 7
				continue
			}
			for ; nacc >= 8; pos++ { // the block's last bytes: no room to overshoot
				nacc -= 8
				body[pos] = byte(acc >> nacc)
			}
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
	// primary resolves the next peekBits of the stream: symbol << 4 |
	// length for every code of at most peekBits bits, 0 where a longer
	// code (or none) starts.
	primary [1 << peekBits]uint16
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
		if l <= peekBits {
			entry := uint16(s)<<4 | uint16(l)
			span := d.primary[code<<(peekBits-l) : (code+1)<<(peekBits-l)]
			for i := range span {
				span[i] = entry
			}
		}
	}
	return nil
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
	body, pos, acc, nacc := d.body, d.pos, d.acc, d.nacc
	for out < len(p) {
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
		entry := d.primary[acc>>(64-peekBits)]
		sym, l := int(entry>>4), int(entry&15)
		if l == 0 {
			if sym, l = d.longCode(acc); l == 0 {
				return fmt.Errorf("%w: no code matches the next %d bits", ErrCorrupt, maxCodeLen)
			}
		}
		acc <<= uint(l)
		nacc -= l
		if sym != symZeroRun {
			if nacc < 0 {
				return fmt.Errorf("%w: truncated bitstream", ErrCorrupt)
			}
			p[out] = byte(sym)
			out++
			continue
		}
		run := int(acc >> 56)
		acc <<= 8
		nacc -= 8
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
			binary.LittleEndian.PutUint64(p[out:], 0)
			if k > 8 {
				clear(p[out+8 : out+k])
			}
		} else {
			clear(p[out : out+k])
		}
		out += k
		d.run = run - k
	}
	d.pos, d.acc, d.nacc = pos, acc, nacc
	d.left -= len(p)
	return nil
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
