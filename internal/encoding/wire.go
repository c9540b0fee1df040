package encoding

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"gist/internal/floatenc"
)

// The wire stream: the one writer and the one reader of the serialised
// stash (marshal.go) and of the spill page around it (package stashstore).
// Both move bytes through one buffer between a container's arrays and the
// wire. The wire is either a section of an io.WriterAt / io.ReaderAt, which
// the buffer passes a batch at a time, or — with none — the buffer itself,
// which then holds the whole wire (AppendBinary, UnmarshalStashInto). A
// buffer must hold one item of the widest array: 8 bytes. Each side keeps
// the CRC32 (IEEE) of the bytes it has passed, the page trailer's checksum;
// bytes are hashed as they leave a section's buffer or when Sum asks, so a
// whole-buffer wire that never asks is never hashed.

// WireWriter writes serialised bytes through one buffer. It records the
// first failure and writes nothing after it; Flush reports it.
type WireWriter struct {
	to   io.WriterAt // nil: buf is the output
	off  int64       // to's offset of buf[0]
	buf  []byte
	n, h int // buf[:n] is written, buf[:h] of it hashed
	crc  uint32
	err  error
}

// NewWireWriter returns a writer to the section of to that starts at off,
// staging through buf. With to nil it writes into buf itself, after its
// len(buf) bytes and within its capacity, which the caller sizes for the
// whole output.
func NewWireWriter(to io.WriterAt, off int64, buf []byte) WireWriter {
	if to == nil {
		return WireWriter{buf: buf[:cap(buf)], n: len(buf), h: len(buf)}
	}
	return WireWriter{to: to, off: off, buf: buf}
}

// room reports whether the buffer has k bytes free, flushing it to the
// section first when it has not.
func (w *WireWriter) room(k int) bool {
	if w.err != nil || len(w.buf)-w.n >= k {
		return w.err == nil
	}
	if w.to == nil {
		w.err = fmt.Errorf("encoding: wire output overflows its %d bytes", len(w.buf))
		return false
	}
	w.flush()
	if w.err == nil && len(w.buf) < k {
		w.err = fmt.Errorf("encoding: a %d-byte wire buffer holds no %d-byte item", len(w.buf), k)
	}
	return w.err == nil
}

func (w *WireWriter) hash() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[w.h:w.n])
	w.h = w.n
}

func (w *WireWriter) flush() {
	w.hash()
	if _, err := w.to.WriteAt(w.buf[:w.n], w.off); err != nil {
		w.err = err
		return
	}
	w.off += int64(w.n)
	w.n, w.h = 0, 0
}

// Put writes p's bytes.
func (w *WireWriter) Put(p []byte) { w.segment(&segment{u8: p}) }

// U32 writes v little-endian.
func (w *WireWriter) U32(v uint32) {
	if w.room(4) {
		binary.LittleEndian.PutUint32(w.buf[w.n:], v)
		w.n += 4
	}
}

// segment writes s's items a buffer's worth at a time (segment.put).
func (w *WireWriter) segment(s *segment) {
	items, size := s.shape()
	for lo := 0; lo < items && w.room(size); {
		hi := min(items, lo+(len(w.buf)-w.n)/size)
		s.put(w.buf[w.n:], lo, hi)
		w.n += (hi - lo) * size
		lo = hi
	}
}

// Sum returns the CRC32 (IEEE) of every byte written so far.
func (w *WireWriter) Sum() uint32 {
	w.hash()
	return w.crc
}

// Flush writes the bytes the buffer still stages to the section and
// returns the writer's first failure.
func (w *WireWriter) Flush() error {
	if w.err == nil && w.to != nil && w.n > 0 {
		w.flush()
	}
	return w.err
}

// WireReader reads serialised bytes through one buffer. It is bounded:
// every read either succeeds or records an ErrCorruptStash-wrapped error,
// after which reads return zeros, so parsing code never indexes past the
// input, and every count is checked against the bytes left in the input
// before an array is sized to it. It travels by value through the technique
// plug point, which keeps a parse off the heap.
type WireReader struct {
	from     io.ReaderAt // nil: buf is the input
	off, end int64       // from's offsets of the next refill and of the input's end
	buf      []byte
	r, w, h  int // buf[r:w] is read ahead; buf[h:r] consumed, not yet hashed
	left     int // input bytes the current parse may still consume
	crc      uint32
	err      error
}

// NewWireReader returns a reader of the n-byte section of from that starts
// at off, reading ahead through buf. With from nil the input is buf[:n]
// itself.
func NewWireReader(from io.ReaderAt, off int64, n int, buf []byte) WireReader {
	if from == nil {
		return WireReader{buf: buf[:n], w: n, left: n}
	}
	return WireReader{from: from, off: off, end: off + int64(n), buf: buf, left: n}
}

func (r *WireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: unmarshal: %s", ErrCorruptStash, fmt.Sprintf(format, args...))
	}
}

// Err returns the reader's first failure.
func (r *WireReader) Err() error { return r.err }

// need reports whether the parse may still consume n bytes, failing the
// read when it may not.
func (r *WireReader) need(n int) bool {
	if r.err == nil && (n < 0 || n > r.left) {
		r.fail("need %d bytes, have %d", n, r.left)
	}
	return r.err == nil
}

func (r *WireReader) hash() {
	r.crc = crc32.Update(r.crc, crc32.IEEETable, r.buf[r.h:r.r])
	r.h = r.r
}

// fill makes k bytes readable in the buffer, moving the unread ones to its
// front and reading from the section behind them when fewer are. Callers
// have checked k against left.
func (r *WireReader) fill(k int) bool {
	if r.err != nil || r.w-r.r >= k {
		return r.err == nil
	}
	if r.from == nil || k > len(r.buf) {
		r.fail("a %d-byte wire buffer holds no %d-byte item", len(r.buf), k)
		return false
	}
	r.hash()
	r.w = copy(r.buf, r.buf[r.r:r.w])
	r.r, r.h = 0, 0
	want := int(min(int64(len(r.buf)-r.w), r.end-r.off))
	got, err := r.from.ReadAt(r.buf[r.w:r.w+want], r.off)
	r.off += int64(got)
	r.w += got
	if got < want {
		r.fail("short read at offset %d: %v", r.off, err)
	}
	return r.err == nil
}

// Next consumes the next k bytes (at most the buffer's length) and returns
// them, valid until the next read; nil once the input is short.
func (r *WireReader) Next(k int) []byte {
	if !r.need(k) || !r.fill(k) {
		return nil
	}
	b := r.buf[r.r : r.r+k]
	r.r += k
	r.left -= k
	return b
}

// U32 consumes a little-endian word.
func (r *WireReader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Sum returns the CRC32 (IEEE) of every byte consumed so far.
func (r *WireReader) Sum() uint32 {
	r.hash()
	return r.crc
}

// segment fills s's items, whose arrays the caller sized, a buffer's worth
// at a time (segment.get).
func (r *WireReader) segment(s *segment) {
	items, size := s.shape()
	if !r.need(items * size) {
		return
	}
	for lo := 0; lo < items && r.fill(size); {
		hi := min(items, lo+(r.w-r.r)/size)
		s.get(r.buf[r.r:], lo, hi)
		r.r += (hi - lo) * size
		lo = hi
	}
	r.left -= items * size
}

// format reads a DPR format word and returns it with its values per word;
// an unknown format fails the read and reports 1 value per word, so the
// caller's size arithmetic stays defined.
func (r *WireReader) format() (floatenc.Format, int) {
	f := floatenc.Format(r.U32())
	vpw, ok := packedValuesPerWord(f)
	if !ok {
		r.fail("unknown packed format %d", int(f))
		return f, 1
	}
	return f, vpw
}

// count reads a u32 element count and validates it against the cap and the
// bytes left at elemBytes each, so array sizes stay bounded by the input.
func (r *WireReader) count(what string, cap, elemBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > cap {
		r.fail("%s count %d exceeds cap %d", what, n, cap)
		return 0
	}
	if n*elemBytes > r.left {
		r.fail("%s count %d needs %d bytes, have %d", what, n, n*elemBytes, r.left)
		return 0
	}
	return n
}
