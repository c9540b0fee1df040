package encoding

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gist/internal/entropy"
	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// entropyTech is the generic entropy backend: each chunk of the stash is
// DPR-packed (raw FP32 words when the format is FP32) and its packed bytes
// run through a zero-run-length + canonical-Huffman stage
// (internal/entropy). It compresses anything with a skewed byte histogram
// — sparse activations above all — without assuming a zero pattern the
// way ZVC and SSDC do, at a much higher compute cost per byte. Chunks
// compress independently, so encode and decode parallelize and the stream
// layout is a pure function of the data and chunk size.

// EntropyPayload is the held entropy-coded representation.
type EntropyPayload struct {
	// Format is the DPR format of the packed bytes under the entropy
	// stage (FP32 = raw words).
	Format floatenc.Format
	// N is the element count.
	N int
	// Lens holds each chunk's compressed block length; the blocks sit
	// back to back in Stream in chunk order.
	Lens []uint32
	// Stream is the concatenated entropy blocks — the corruption surface
	// FlipBit addresses.
	Stream []byte

	// toks holds each chunk's token stream between the encode passes, kept
	// across steps so the pooled re-encode path stops allocating it.
	toks [][]byte
}

type entropyTech struct{}

func init() { registerTechnique(Entropy, entropyTech{}) }

func (entropyTech) name() string { return "Entropy" }

func (entropyTech) encodeInto(cdc Codec, e *EncodedStash, as *Assignment, t *tensor.Tensor) error {
	if e.Ent == nil {
		e.Ent = &EntropyPayload{}
	}
	p := e.Ent
	n := len(t.Data)
	p.Format = as.Format
	p.N = n
	ce := cdc.chunkElems()
	nc := (n + ce - 1) / ce

	// Pass 1, per chunk: pack, tokenise and count the chunk once. The
	// histogram fixes the block's exact size; the code tables are staged at
	// the head of Stream and the tokens kept for pass 2.
	const tb = entropy.TableBytes
	p.Lens = resized(p.Lens, nc)
	p.toks = resized(p.toks, nc)
	p.Stream = resized(p.Stream, nc*tb)
	task := cdc.elemTask(planChunk, n)
	task.ent, task.src = p, t.Data
	cdc.forChunks(task)
	total := p.blockOff(nc)
	if dense := as.Format.PackedBytes(n); int64(total)+int64(nc)*4 >= dense {
		return errEntropyLargerThanDense // known before a single code is written
	}

	// Pass 2: every block has its final place. Move each staged table to
	// the head of its block, then emit the bodies behind them. A block is
	// longer than a table, so block c starts beyond staging slot c: moving
	// the last chunk's table first, no move lands on a slot still waiting.
	p.Stream = slices.Grow(p.Stream, total-len(p.Stream))[:total]
	for c, off := nc-1, total; c > 0; c-- {
		off -= int(p.Lens[c])
		copy(p.Stream[off:off+tb], p.Stream[c*tb:(c+1)*tb])
	}
	task = newChunkTask(emitChunk, n, ce)
	task.ent = p
	cdc.run(nc, task)
	return nil
}

// chunkWords returns the range of packed words chunk c covers. Chunk
// boundaries are multiples of every values-per-word packing, so chunks own
// whole words.
func (p *EntropyPayload) chunkWords(c, ce, vpw int) (w0, w1 int) {
	return c * ce / vpw, (min((c+1)*ce, p.N) + vpw - 1) / vpw
}

// blockOff is the offset of chunk c's block in Stream (the stream's length
// at c = len(Lens)). Summed on demand: a stash has a handful of chunks, each
// worth a hundred thousand elements of work.
func (p *EntropyPayload) blockOff(c int) int {
	off := 0
	for _, l := range p.Lens[:c] {
		off += int(l)
	}
	return off
}

// planChunk and emitChunk are the two encode passes of chunk c, and
// decodeBlock the decode of chunk c, as chunk kernels.

func planChunk(t *chunkTask, c int) {
	p := t.ent
	lo, hi := t.span(c)
	size, toks := entropy.Plan(p.Stream[c*entropy.TableBytes:], p.toks[c], p.Format, t.src[lo:hi])
	p.Lens[c], p.toks[c] = uint32(size), toks
}

func emitChunk(t *chunkTask, c int) {
	p := t.ent
	off := p.blockOff(c)
	entropy.Emit(p.Stream[off:off+int(p.Lens[c])], p.toks[c])
}

func decodeBlock(t *chunkTask, c int) {
	t.errs[c] = t.ent.decodeChunk(t.dst, c, t.ce, t.vpw)
}

// decodeWindow is how many packed words decodeChunk decodes at a time: the
// entropy block is drained through one stack buffer of this many words, so
// decode holds no staging memory, allocates nothing and never writes to the
// payload — any number of goroutines may decode one stash at once.
const decodeWindow = 1024

// decodeChunk decompresses chunk c's block window by window and unpacks
// each window's bytes into out. Windows start on word boundaries, so every
// element decodes exactly as a whole-range DecodeRange would decode it.
func (p *EntropyPayload) decodeChunk(out []float32, c, ce, vpw int) error {
	w0, w1 := p.chunkWords(c, ce, vpw)
	hi := min((c+1)*ce, p.N)
	off := p.blockOff(c)
	var d entropy.Decoder
	if err := d.Init(p.Stream[off:off+int(p.Lens[c])], (w1-w0)*4); err != nil {
		return err
	}
	var raw [4 * decodeWindow]byte
	for w := w0; w < w1; w += decodeWindow {
		k := min(decodeWindow, w1-w)
		if err := d.Read(raw[:4*k]); err != nil {
			return err
		}
		lo := w * vpw
		floatenc.UnpackBytes(p.Format, out[lo:min(lo+k*vpw, hi)], raw[:4*k])
	}
	return nil
}

func (entropyTech) decodeInto(cdc Codec, out *tensor.Tensor, e *EncodedStash) error {
	p := e.Ent
	if p == nil || p.N != len(out.Data) {
		return fmt.Errorf("%w: entropy payload over %d elements, shape %v", ErrShapeMismatch, entN(p), e.Shape)
	}
	vpw, ok := packedValuesPerWord(p.Format)
	if !ok {
		return fmt.Errorf("%w: unknown packed format %d", ErrCorruptStash, int(p.Format))
	}
	n := p.N
	// The block layout is fixed by the stash's encode-time chunk size,
	// not the decoding codec's.
	ce := normalizeChunkElems(e.ChunkElems)
	nc := (n + ce - 1) / ce
	if len(p.Lens) != nc {
		return fmt.Errorf("%w: %d entropy blocks for %d chunks", ErrCorruptStash, len(p.Lens), nc)
	}
	if total := p.blockOff(nc); total != len(p.Stream) {
		return fmt.Errorf("%w: entropy blocks total %d bytes, stream has %d", ErrCorruptStash, total, len(p.Stream))
	}
	cdc.metrics().add(cChunks, int64(nc))
	task := newChunkTask(decodeBlock, n, ce)
	task.ent, task.vpw, task.dst = p, vpw, out.Data
	task.errs = resized(task.errs, nc)
	if err := cdc.run(nc, task); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptStash, err)
	}
	return nil
}

// entN is the nil-tolerant element count for error messages.
func entN(p *EntropyPayload) int {
	if p == nil {
		return 0
	}
	return p.N
}

// layout: the stream, one block per chunk. Format, element count and the
// block table are metadata hashed into the header piece and kept out of
// PayloadBits: fault injection only ever lands in Stream, so the chunk
// layout survives every flip and attribution stays exact.
func (entropyTech) layout(e *EncodedStash, ce int) (l payloadLayout) {
	p := e.Ent
	if p == nil {
		return l
	}
	l.n = p.N
	l.ext, l.nExt = [3]uint32{uint32(p.Format), uint32(p.N), uint32(len(p.Lens))}, 3
	l.meta = p.Lens
	l.add(segment{u8: p.Stream, cut: cutBlocks})
	nc := (p.N + ce - 1) / ce
	l.chunkable = len(p.Lens) == nc && p.blockOff(nc) == len(p.Stream)
	return l
}

func (entropyTech) marshalPayload(e *EncodedStash, out []byte) ([]byte, error) {
	p := e.Ent
	if p == nil {
		return nil, fmt.Errorf("encoding: marshal: Entropy stash without payload")
	}
	u32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	u32(uint32(p.Format))
	u32(uint32(p.N))
	u32(uint32(len(p.Lens)))
	out = appendSegment(out, segment{u32: p.Lens})
	u32(uint32(len(p.Stream)))
	out = append(out, p.Stream...)
	return out, nil
}

func (entropyTech) unmarshalPayload(e *EncodedStash, r stashReader) stashReader {
	f, _ := r.format()
	n := r.count("entropy element", maxStashElems, 0)
	nLens := r.count("entropy block", maxStashElems, 4)
	lens := r.bytes(4 * nLens)
	sLen := r.count("entropy stream byte", maxStashElems*8, 1)
	if stream := r.bytes(sLen); r.err == nil {
		if e.Ent == nil {
			e.Ent = &EntropyPayload{}
		}
		p := e.Ent
		p.Format, p.N = f, n
		p.Lens = resized(p.Lens, nLens)
		loadSegment(segment{u32: p.Lens}, lens)
		p.Stream = append(p.Stream[:0], stream...)
	}
	return r
}

func (entropyTech) planBytes(elems int, sparsity float64, f floatenc.Format) int64 {
	return entropyBytes(elems, sparsity, f)
}

func (entropyTech) overheadTime(t float64, stream func(int64) float64, dense, enc int64) float64 {
	// Byte-serial entropy (de)coding runs far below streaming bandwidth;
	// modeled as eight dense-size passes each way. Entropy is the
	// expensive tier — the selector picks it for ratio, never for speed.
	t += 8 * stream(dense)
	t += 8 * stream(dense)
	return t
}
