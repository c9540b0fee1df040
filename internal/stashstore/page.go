// The "GSTP" spill-page wire format: one sealed frame per spilled
// EncodedStash, mirroring the v3 checkpoint discipline — magic, version,
// explicit payload length, and a trailing CRC32 over everything before it,
// parsed by a bounded reader that never panics on hostile bytes. A page is
// self-describing and self-verifying, so a torn write, a short read or a
// flipped bit anywhere in the frame surfaces as ErrCorruptPage with the
// offset-level attribution the fault-injection tests demand.
package stashstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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
	// maxPagePayload bounds a single page's stash blob. Far above any real
	// encoded stash (the executor caps stashes at 16M elements) but small
	// enough that a corrupt length field cannot drive a huge allocation.
	maxPagePayload = 1 << 30
)

// ErrCorruptPage is the root error for every malformed-page condition:
// short frames, bad magic, unknown versions, CRC mismatches, and payloads
// the stash parser rejects. Matched with errors.Is by the executor's
// robustness accounting.
var ErrCorruptPage = errors.New("stashstore: corrupt spill page")

// AppendPage appends one sealed spill page for enc (owned by graph node
// `node`) to dst and returns the extended slice; the stash serializes
// straight into dst (EncodedStash.AppendBinary), so a reused buffer makes a
// page without allocating. The only error source is stash marshalling
// itself, which leaves dst unchanged.
func AppendPage(dst []byte, node uint32, enc *encoding.EncodedStash) ([]byte, error) {
	start := len(dst)
	page := append(dst, pageMagic...)
	page = binary.LittleEndian.AppendUint32(page, pageVersion)
	page = binary.LittleEndian.AppendUint32(page, node)
	page = binary.LittleEndian.AppendUint32(page, 0) // payload length, below
	page, err := enc.AppendBinary(page)
	if err != nil {
		return dst, fmt.Errorf("stashstore: marshal stash for page: %w", err)
	}
	binary.LittleEndian.PutUint32(page[start+12:], uint32(len(page)-start-pageHeader))
	crc := crc32.ChecksumIEEE(page[start:])
	return binary.LittleEndian.AppendUint32(page, crc), nil
}

// ReadPage parses one spill page from the front of data into stash,
// reusing its arrays (encoding.UnmarshalStashInto), and returns the node
// the page belongs to and the number of bytes it occupied — trailing bytes
// (subsequent pages) are allowed, so a reader can walk a file of
// concatenated pages. Every malformed input returns an error wrapping
// ErrCorruptPage, after which the stash's contents are unspecified; the
// parser is bounded and never panics, which FuzzReadSpillPage enforces.
func ReadPage(stash *encoding.EncodedStash, data []byte) (node, size int, err error) {
	if len(data) < pageHeader+pageTrailer {
		return 0, 0, fmt.Errorf("%w: %d bytes, need at least %d",
			ErrCorruptPage, len(data), pageHeader+pageTrailer)
	}
	if string(data[:4]) != pageMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptPage, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != pageVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorruptPage, v)
	}
	node = int(binary.LittleEndian.Uint32(data[8:12]))
	n := binary.LittleEndian.Uint32(data[12:16])
	if n > maxPagePayload {
		return 0, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrCorruptPage, n)
	}
	size = pageHeader + int(n) + pageTrailer
	if len(data) < size {
		return 0, 0, fmt.Errorf("%w: short page, %d bytes of %d", ErrCorruptPage, len(data), size)
	}
	want := binary.LittleEndian.Uint32(data[size-pageTrailer : size])
	if got := crc32.ChecksumIEEE(data[:size-pageTrailer]); got != want {
		return 0, 0, fmt.Errorf("%w: CRC 0x%08x, want 0x%08x", ErrCorruptPage, got, want)
	}
	if err := encoding.UnmarshalStashInto(stash, data[pageHeader:pageHeader+int(n)]); err != nil {
		// The CRC matched, so these bytes are what was written — the page
		// was sealed around an already-bad payload (or a CRC collision).
		return 0, 0, fmt.Errorf("%w: stash payload: %v", ErrCorruptPage, err)
	}
	return node, size, nil
}
