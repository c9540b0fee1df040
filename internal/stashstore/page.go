// The "GSTP" spill-page wire format: one sealed frame per spilled
// EncodedStash, mirroring the v3 checkpoint discipline — magic, version,
// explicit payload length, and a trailing CRC32 over everything before it,
// parsed by a bounded reader that never panics on hostile bytes. A page is
// written and read as a stream (encoding.WireWriter / WireReader): header,
// stash and trailer pass between the container's arrays and the spill file
// through one fixed buffer, so no copy of the page is ever whole in RAM. A
// page is self-describing and self-verifying, so a torn write, a short read
// or a flipped bit anywhere in the frame surfaces as ErrCorruptPage.
package stashstore

import (
	"errors"
	"fmt"
	"slices"

	"gist/internal/encoding"
)

// Page layout, all integers little-endian:
//
//	[0:4)   magic "GSTP"
//	[4:8)   version (currently 1)
//	[8:12)  node ID of the stash the page holds
//	[12:16) payload length N
//	[16:16+N) payload: the stash's MarshalBinary blob ("GST4")
//	[16+N:20+N) CRC32 (IEEE) over bytes [0:16+N)
const (
	pageMagic   = "GSTP"
	pageVersion = 1
	pageHeader  = 16
	pageTrailer = 4
)

// ErrCorruptPage is the root error for every malformed-page condition:
// short frames, bad magic, unknown versions, CRC mismatches, and payloads
// the stash parser rejects. Matched with errors.Is by the executor's
// robustness accounting.
var ErrCorruptPage = errors.New("stashstore: corrupt spill page")

// AppendPage appends one sealed spill page for enc (owned by graph node
// `node`) to dst and returns the extended slice: writePage into dst's spare
// capacity, grown once to the page's length. The only error source is
// stash marshalling itself, which leaves dst unchanged.
func AppendPage(dst []byte, node uint32, enc *encoding.EncodedStash) ([]byte, error) {
	n, err := enc.WireSize()
	if err != nil {
		return dst, fmt.Errorf("stashstore: marshal stash for page: %w", err)
	}
	page := slices.Grow(dst, pageHeader+n+pageTrailer)
	w := encoding.NewWireWriter(nil, 0, page)
	size, err := writePage(&w, node, enc)
	if err != nil {
		return dst, err
	}
	return page[:len(page)+size], nil
}

// writePage writes one sealed spill page for enc through w — the header,
// the stash (EncodedStash.WriteWire) and the CRC trailer over both — and
// returns the page's length. The store's w stages through its fixed page
// buffer into the spill file, so no page-sized buffer exists.
func writePage(w *encoding.WireWriter, node uint32, enc *encoding.EncodedStash) (int, error) {
	n, err := enc.WireSize()
	if err != nil {
		return 0, fmt.Errorf("stashstore: marshal stash for page: %w", err)
	}
	w.Put([]byte(pageMagic))
	w.U32(pageVersion)
	w.U32(node)
	w.U32(uint32(n))
	_ = enc.WriteWire(w) // WireSize passed, so a failure is w's, which Flush returns
	w.U32(w.Sum())
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("stashstore: write page: %w", err)
	}
	return pageHeader + n + pageTrailer, nil
}

// ReadPage parses one spill page from the front of data into stash —
// readPage over data itself — and returns the node the page belongs to and
// the number of bytes it occupied. Trailing bytes (subsequent pages) are
// allowed, so a reader can walk a file of concatenated pages.
func ReadPage(stash *encoding.EncodedStash, data []byte) (node, size int, err error) {
	r := encoding.NewWireReader(nil, 0, len(data), data)
	return readPage(stash, &r)
}

// readPage parses the spill page at the front of r's input into stash,
// reusing its arrays (encoding.ReadWire), and returns the page's node and
// length. The store's r reads the page's section of the spill file through
// its fixed page buffer. Every malformed input returns an error wrapping
// ErrCorruptPage, after which the stash's contents are unspecified: the
// CRC is checked after the parse, so a corrupt page may have filled some
// of the stash. The parser is bounded — no array is sized past the input —
// and never panics, which FuzzReadSpillPage enforces.
func readPage(stash *encoding.EncodedStash, r *encoding.WireReader) (node, size int, err error) {
	magic := r.Next(4)
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("%w: header: %v", ErrCorruptPage, err)
	}
	if string(magic) != pageMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptPage, magic)
	}
	if v := r.U32(); r.Err() == nil && v != pageVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorruptPage, v)
	}
	node = int(r.U32())
	n := int(r.U32()) // ReadWire checks it against the bytes the input has left
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("%w: header: %v", ErrCorruptPage, err)
	}
	if err := encoding.ReadWire(stash, r, n); err != nil {
		// Not %w: a page fault is a page fault, whatever the stash parser saw.
		return 0, 0, fmt.Errorf("%w: stash payload: %v", ErrCorruptPage, err)
	}
	got := r.Sum()
	if want := r.U32(); r.Err() != nil || got != want {
		return 0, 0, fmt.Errorf("%w: CRC 0x%08x, want 0x%08x (%v)", ErrCorruptPage, got, want, r.Err())
	}
	return node, pageHeader + n + pageTrailer, nil
}
