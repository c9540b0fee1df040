package entropy

import "fmt"

// The frozen reference coder: the bit-serial decoder, closure-driven ZRL
// and heap-built Huffman tree the package shipped before its table-driven
// kernels, kept verbatim (names prefixed ref) as the oracle of the
// differential wall in diff_test.go and the scalar leg of the kernel
// benchmarks. It defines the entropy stream of the "GST3" stash container; the kernels in
// entropy.go must match it byte for byte and verdict for verdict.

func refEncode(dst []byte, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	var hist [numSymbols]int64
	refZRL(src, func(sym int, _ byte) {
		hist[sym]++
	})
	lens := refBuildCodeLens(&hist)
	codes := refCanonicalCodes(&lens)

	base := len(dst)
	dst = append(dst, make([]byte, tableBytes)...)
	for s := 0; s < numSymbols; s++ {
		dst[base+s/2] |= byte(lens[s]) << (uint(s%2) * 4)
	}

	w := refBitWriter{dst: dst}
	refZRL(src, func(sym int, run byte) {
		w.write(uint32(codes[sym]), int(lens[sym]))
		if sym == symZeroRun {
			w.write(uint32(run), 8)
		}
	})
	return w.flush()
}

func refDecode(dst []byte, src []byte) error {
	if len(dst) == 0 {
		if len(src) != 0 {
			return fmt.Errorf("%w: %d bytes for empty output", ErrCorrupt, len(src))
		}
		return nil
	}
	if len(src) < tableBytes {
		return fmt.Errorf("%w: %d bytes, need %d for the code table", ErrCorrupt, len(src), tableBytes)
	}
	var lens [numSymbols]uint8
	for s := 0; s < numSymbols; s++ {
		lens[s] = src[s/2] >> (uint(s%2) * 4) & 0xf
	}
	dec, err := refNewDecoder(&lens)
	if err != nil {
		return err
	}
	r := refBitReader{src: src[tableBytes:]}
	out := 0
	for out < len(dst) {
		sym, err := dec.read(&r)
		if err != nil {
			return err
		}
		if sym == symZeroRun {
			run, err := r.bits(8)
			if err != nil {
				return err
			}
			if run == 0 || out+int(run) > len(dst) {
				return fmt.Errorf("%w: zero run of %d at offset %d overflows %d", ErrCorrupt, run, out, len(dst))
			}
			for i := 0; i < int(run); i++ {
				dst[out] = 0
				out++
			}
			continue
		}
		dst[out] = byte(sym)
		out++
	}
	return nil
}

func refZRL(src []byte, emit func(sym int, run byte)) {
	for i := 0; i < len(src); {
		if src[i] != 0 {
			emit(int(src[i]), 0)
			i++
			continue
		}
		run := 1
		for i+run < len(src) && run < maxRun && src[i+run] == 0 {
			run++
		}
		emit(symZeroRun, byte(run))
		i += run
	}
}

func refBuildCodeLens(hist *[numSymbols]int64) [numSymbols]uint8 {
	var lens [numSymbols]uint8
	counts := *hist
	for {
		lens = refHuffmanLens(&counts)
		maxLen := uint8(0)
		for _, l := range lens {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= maxCodeLen {
			return lens
		}
		for s := range counts {
			if counts[s] > 0 {
				counts[s] = (counts[s] + 1) / 2
			}
		}
	}
}

type refHuffNode struct {
	weight      int64
	order       int // creation order: deterministic tie-break after weight
	sym         int
	left, right int // child node indices, -1 for leaves
}

func refHuffmanLens(counts *[numSymbols]int64) [numSymbols]uint8 {
	var lens [numSymbols]uint8
	nodes := make([]refHuffNode, 0, 2*numSymbols)
	heap := make([]int, 0, numSymbols)
	push := func(n int) {
		heap = append(heap, n)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !refNodeLess(nodes, heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && refNodeLess(nodes, heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && refNodeLess(nodes, heap[r], heap[small]) {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for s := 0; s < numSymbols; s++ {
		if counts[s] > 0 {
			nodes = append(nodes, refHuffNode{weight: counts[s], order: len(nodes), sym: s, left: -1, right: -1})
			push(len(nodes) - 1)
		}
	}
	if len(heap) == 0 {
		return lens
	}
	if len(heap) == 1 {
		lens[nodes[heap[0]].sym] = 1
		return lens
	}
	for len(heap) > 1 {
		a, b := pop(), pop()
		nodes = append(nodes, refHuffNode{
			weight: nodes[a].weight + nodes[b].weight,
			order:  len(nodes), sym: -1, left: a, right: b,
		})
		push(len(nodes) - 1)
	}
	type frame struct{ node, depth int }
	stack := []frame{{heap[0], 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nodes[f.node]
		if n.left < 0 {
			lens[n.sym] = uint8(f.depth)
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return lens
}

func refNodeLess(nodes []refHuffNode, a, b int) bool {
	if nodes[a].weight != nodes[b].weight {
		return nodes[a].weight < nodes[b].weight
	}
	return nodes[a].order < nodes[b].order
}

func refCanonicalCodes(lens *[numSymbols]uint8) [numSymbols]uint16 {
	var codes [numSymbols]uint16
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	var next [maxCodeLen + 1]uint16
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + uint16(count[l-1])) << 1
		next[l] = code
	}
	for s := 0; s < numSymbols; s++ {
		if l := lens[s]; l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

type refDecoder struct {
	first  [maxCodeLen + 1]uint32
	offset [maxCodeLen + 1]int
	count  [maxCodeLen + 1]int
	syms   []uint16
}

func refNewDecoder(lens *[numSymbols]uint8) (*refDecoder, error) {
	d := &refDecoder{}
	for _, l := range lens {
		d.count[l]++
	}
	d.count[0] = 0
	kraft := uint64(0)
	for l := 1; l <= maxCodeLen; l++ {
		kraft += uint64(d.count[l]) << uint(maxCodeLen-l)
	}
	if kraft > 1<<maxCodeLen {
		return nil, fmt.Errorf("%w: oversubscribed code table", ErrCorrupt)
	}
	code := uint32(0)
	off := 0
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + uint32(d.count[l-1])) << 1
		d.first[l] = code
		d.offset[l] = off
		off += d.count[l]
	}
	d.syms = make([]uint16, off)
	var next [maxCodeLen + 1]int
	for s := 0; s < numSymbols; s++ {
		if l := lens[s]; l > 0 {
			d.syms[d.offset[l]+next[l]] = uint16(s)
			next[l]++
		}
	}
	if len(d.syms) == 0 {
		return nil, fmt.Errorf("%w: empty code table", ErrCorrupt)
	}
	return d, nil
}

// read decodes one symbol, lengthening the code bit by bit until it lands
// in a populated length class.
func (d *refDecoder) read(r *refBitReader) (int, error) {
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		b, err := r.bits(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | b
		if d.count[l] > 0 && code >= d.first[l] && code-d.first[l] < uint32(d.count[l]) {
			return int(d.syms[d.offset[l]+int(code-d.first[l])]), nil
		}
	}
	return 0, fmt.Errorf("%w: code exceeds %d bits", ErrCorrupt, maxCodeLen)
}

type refBitWriter struct {
	dst  []byte
	acc  uint64
	nacc int
}

func (w *refBitWriter) write(v uint32, n int) {
	w.acc = w.acc<<uint(n) | uint64(v)
	w.nacc += n
	for w.nacc >= 8 {
		w.nacc -= 8
		w.dst = append(w.dst, byte(w.acc>>uint(w.nacc)))
	}
}

func (w *refBitWriter) flush() []byte {
	if w.nacc > 0 {
		w.dst = append(w.dst, byte(w.acc<<uint(8-w.nacc)))
		w.nacc = 0
	}
	return w.dst
}

type refBitReader struct {
	src  []byte
	off  int
	acc  uint64
	nacc int
}

func (r *refBitReader) bits(n int) (uint32, error) {
	for r.nacc < n {
		if r.off >= len(r.src) {
			return 0, fmt.Errorf("%w: truncated bitstream", ErrCorrupt)
		}
		r.acc = r.acc<<8 | uint64(r.src[r.off])
		r.off++
		r.nacc += 8
	}
	r.nacc -= n
	return uint32(r.acc >> uint(r.nacc) & (1<<uint(n) - 1)), nil
}
