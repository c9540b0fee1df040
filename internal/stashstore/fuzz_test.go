package stashstore

import (
	"bytes"
	"errors"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
)

// FuzzReadSpillPage throws arbitrary bytes at the GSTP parser, whole
// (ReadPage's reader) or streamed from a section through a small buffer, so
// buffer refills land inside every header word, segment and the trailer.
// The contract under test: the parser never panics, sizes no array past
// twice the page, and either returns a page whose stash survives a
// re-append round trip — through the stream writer too — or an error
// wrapping ErrCorruptPage; nothing else.
func FuzzReadSpillPage(f *testing.F) {
	// Seed with real pages across the stash techniques (the same shapes
	// internal/goldengen freezes), plus a few structured near-misses.
	var c encoding.Codec
	ten := testTensor(12345)
	for _, as := range []*encoding.Assignment{
		{Tech: encoding.ZVC, Format: floatenc.FP16, NeedsDecode: true},
		{Tech: encoding.ZVC, Format: floatenc.FP32},
		{Tech: encoding.Binarize},
	} {
		e := &encoding.EncodedStash{}
		if err := c.EncodeStashInto(e, as, ten); err != nil {
			f.Fatal(err)
		}
		c.Seal(e)
		page, err := AppendPage(nil, 3, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
		f.Add(page[:len(page)-1])    // torn trailer
		f.Add(page[:pageHeader])     // header only
		f.Add(append(page, page...)) // two concatenated pages
	}
	d := &encoding.EncodedStash{}
	if err := c.EncodeStashInto(d, &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP32}, ten); err != nil {
		f.Fatal(err)
	}
	c.Seal(d)
	densePage, err := AppendPage(nil, 7, d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(densePage)
	f.Add([]byte(pageMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// One parse per input: whole, or streamed through a buffer of 8 to
		// 64 bytes that the input's length picks.
		p := &parsedPage{Stash: &encoding.EncodedStash{}}
		buf := len(data) % 65
		r := encoding.NewWireReader(nil, 0, len(data), data)
		if buf >= 8 {
			r = encoding.NewWireReader(bytes.NewReader(data), 0, len(data), make([]byte, buf))
		}
		var err error
		p.Node, p.Size, err = readPage(p.Stash, &r)
		if held := heldBytes(p.Stash); held > 2*len(data)+256 {
			t.Fatalf("buffer %d: a %d-byte input sized %d bytes of arrays", buf, len(data), held)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("non-ErrCorruptPage failure: %v", err)
			}
			return
		}
		if p.Stash == nil {
			t.Fatal("accepted page with nil stash")
		}
		if p.Size < pageHeader+pageTrailer || p.Size > len(data) {
			t.Fatalf("accepted page with impossible size %d (input %d)", p.Size, len(data))
		}
		// An accepted page round-trips: re-appending its stash yields a
		// page the parser accepts again with the same node — the accepted
		// page's own bytes, since the stash wire is canonical.
		out, err := AppendPage(nil, uint32(p.Node), p.Stash)
		if err != nil {
			t.Fatalf("re-append accepted stash: %v", err)
		}
		if !bytes.Equal(out, data[:p.Size]) {
			t.Fatalf("accepted %d-byte page re-appends to %d different bytes", p.Size, len(out))
		}
		p2, err := parsePage(out)
		if err != nil {
			t.Fatalf("re-read re-appended page: %v", err)
		}
		if p2.Node != p.Node {
			t.Fatalf("node changed across round trip: %d -> %d", p.Node, p2.Node)
		}
		// Reading into a container the fetch path reuses gives the same page.
		node, size, err := ReadPage(p2.Stash, data)
		if err != nil || node != p.Node || size != p.Size {
			t.Fatalf("read into a used container: node %d size %d err %v, want %d %d", node, size, err, p.Node, p.Size)
		}
		if again, _ := AppendPage(nil, uint32(node), p2.Stash); !bytes.Equal(again, out) {
			t.Fatal("read into a used container changed the stash")
		}
		if w := writePageVia(t, max(buf, 8), uint32(node), p.Stash); !bytes.Equal(w, out) {
			t.Fatalf("the page streamed through %d bytes differs from AppendPage's", max(buf, 8))
		}
	})
}

// heldBytes is the capacity of every array a parse may have sized in e:
// what a hostile page made the parser allocate.
func heldBytes(e *encoding.EncodedStash) int {
	n := 8*cap(e.Shape) + 4*cap(e.ChunkCRCs)
	if e.Mask != nil {
		n += 8 * cap(e.Mask.Words())
	}
	if e.Packed != nil {
		n += 4 * cap(e.Packed.Words)
	}
	if z := e.ZVC; z != nil && z.Mask != nil {
		n += 8*cap(z.Mask.Words()) + 4*cap(z.Values.Words)
	}
	return n
}
