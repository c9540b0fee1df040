package entropy

import (
	"encoding/binary"
	"fmt"
)

// The frozen two-phase encoder: the table-driven encode the package shipped
// before its single-pass one, kept verbatim (names prefixed twoPhase) as the
// second oracle of the encode wall in diff_test.go and the parent leg of
// BenchmarkKernelEntropyEncode. It tokenises its input twice, once to count
// and once to emit, over packed words the caller keeps alive between the
// phases.

// twoPhasePlan is the first phase: it builds the code table for the block
// that compresses the first n bytes of words (read as their little-endian
// bytes) into table[:TableBytes] and returns the block's exact length.
func twoPhasePlan(table []byte, words []uint32, n int) int {
	if n == 0 {
		return 0
	}
	// Literals count at their byte value, a run of r at symZeroRun+r.
	var hist [numSymbols + maxRun]int
	z := twoPhaseTokenizer{words: words, n: n}
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

// twoPhaseEmit is the second phase: block has exactly the length
// twoPhasePlan returned and holds its table; the body is filled in.
func twoPhaseEmit(block []byte, words []uint32, n int) {
	if n == 0 {
		return
	}
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

	body := block[tableBytes:]
	var acc uint64
	nacc, pos := uint(0), 0
	z := twoPhaseTokenizer{words: words, n: n}
	for toks := z.next(); toks != nil; toks = z.next() {
		for _, t := range toks {
			c := codes[t]
			acc = acc<<(c&31) | uint64(c>>5)
			nacc += uint(c & 31)
			if pos+8 <= len(body) {
				binary.BigEndian.PutUint64(body[pos:], acc<<((64-nacc)&63))
				pos += int(nacc >> 3)
				nacc &= 7
				continue
			}
			for ; nacc >= 8; pos++ {
				nacc -= 8
				body[pos] = byte(acc >> nacc)
			}
		}
	}
	if nacc > 0 {
		body[pos] = byte(acc << (8 - nacc))
		pos++
	}
	if pos != len(body) {
		panic(fmt.Sprintf("entropy: emitted %d body bytes into a block planned for %d", pos, len(body)))
	}
}

// twoPhaseEncode is Encode through the two phases.
func twoPhaseEncode(dst []byte, src []byte) []byte {
	words := make([]uint32, (len(src)+3)/4)
	for i, b := range src {
		words[i/4] |= uint32(b) << (uint(i%4) * 8)
	}
	var table [tableBytes]byte
	size := twoPhasePlan(table[:], words, len(src))
	base := len(dst)
	dst = append(dst, make([]byte, size)...)
	copy(dst[base:], table[:])
	twoPhaseEmit(dst[base:], words, len(src))
	return dst
}

// twoPhaseTokenizer yields the uint16 tokens of one window at a time: a
// literal's byte value, or symZeroRun+length for a zero run.
type twoPhaseTokenizer struct {
	words []uint32
	n     int
	run   int
	toks  [twoPhaseWindow + 2]uint16
}

const twoPhaseWindow = 1024

func (z *twoPhaseTokenizer) next() []uint16 {
	if z.n == 0 {
		return nil
	}
	n := min(z.n, twoPhaseWindow)
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
			literal := (b + 0xff) >> 8
			pending := (run + 0xff) >> 8
			z.toks[nt] = uint16(symZeroRun + run)
			nt += literal & pending
			z.toks[nt] = uint16(b)
			nt += literal
			run = (run + 1) & (literal - 1)
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
