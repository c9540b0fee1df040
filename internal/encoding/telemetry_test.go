package encoding

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/telemetry"
	"gist/internal/tensor"
)

// TestCodecTelemetry pins the codec's instrument surface: per-technique
// call/byte counters and latency histograms, the chunk counter, and — with
// tracing armed — per-call complete events plus per-chunk worker spans.
func TestCodecTelemetry(t *testing.T) {
	s := telemetry.New()
	s.EnableTracing(0)
	c := Codec{Pool: parallel.NewPool(2), ChunkElems: 768, Tel: s}

	rng := tensor.NewRNG(3)
	tt := tensor.New(4096)
	copy(tt.Data, randStash(rng, 4096, 0.5))
	as := &Assignment{Tech: DPR, Format: floatenc.FP16}
	enc, err := encodeFresh(c, as, tt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFresh(c, enc); err != nil {
		t.Fatal(err)
	}

	v := s.Values()
	if v["codec.encode.DPR.calls"] != 1 || v["codec.decode.DPR.calls"] != 1 {
		t.Fatalf("call counters: %v", v)
	}
	if v["codec.encode.DPR.bytes"] != enc.Bytes() {
		t.Fatalf("encode bytes %d, want %d", v["codec.encode.DPR.bytes"], enc.Bytes())
	}
	if v["codec.decode.DPR.bytes"] != tt.Bytes() {
		t.Fatalf("decode bytes %d, want raw %d", v["codec.decode.DPR.bytes"], tt.Bytes())
	}
	// 4096 elements at 768/chunk = 6 chunks per pass; encode + decode +
	// decode's verify pass each walk the payload.
	if v["codec.chunks"] < 12 {
		t.Fatalf("chunk count %d, want >= 12", v["codec.chunks"])
	}
	if s.Histogram("codec.encode.DPR.ns").Snapshot().Count != 1 {
		t.Fatal("missing encode latency observation")
	}

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"encode.DPR"`, `"decode.DPR"`, `"chunk"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestCodecCRCFailureTelemetry(t *testing.T) {
	s := telemetry.New()
	s.EnableTracing(0)
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768, Tel: s}

	rng := tensor.NewRNG(5)
	tt := tensor.New(4096)
	copy(tt.Data, randStash(rng, 4096, 0.5))
	enc, err := encodeFresh(c, &Assignment{Tech: Binarize, Format: floatenc.FP32}, tt)
	if err != nil {
		t.Fatal(err)
	}
	c.Seal(enc)
	enc.FlipBit(1000)
	if err := c.Verify(enc); err == nil {
		t.Fatal("flip undetected")
	}
	if got := s.Values()["codec.crc.failures"]; got != 1 {
		t.Fatalf("crc failure counter %d", got)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"crc-failure"`, `"elem_lo"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("trace missing %s instant", want)
		}
	}
}

// TestChunkErrorOffsets pins the self-describing location on chunk errors:
// the element range always, byte offsets for the single-array techniques
// (Binarize words, DPR words), and -1 byte offsets for ZVC whose chunks
// span two backing arrays.
func TestChunkErrorOffsets(t *testing.T) {
	rng := tensor.NewRNG(9)
	c := Codec{Pool: parallel.NewPool(1), ChunkElems: 768}
	n := 4096

	chunkErrFor := func(as *Assignment, bit int) *ChunkError {
		t.Helper()
		tt := tensor.New(n)
		copy(tt.Data, randStash(rng, n, 0.8))
		enc, _, err := adaptiveFresh(c, as, tt)
		if err != nil {
			t.Fatalf("%v: encode: %v", as.Tech, err)
		}
		c.Seal(enc)
		enc.FlipBit(bit)
		verr := c.Verify(enc)
		var ce *ChunkError
		if !errors.As(verr, &ce) {
			t.Fatalf("%v: no chunk error: %v", as.Tech, verr)
		}
		elemLo, elemHi, byteLo, byteHi := enc.ChunkSpan(ce.Chunk)
		if ce.ElemLo != elemLo || ce.ElemHi != elemHi || ce.ByteLo != byteLo || ce.ByteHi != byteHi {
			t.Fatalf("%v: error span (%d,%d,%d,%d) != ChunkSpan (%d,%d,%d,%d)",
				as.Tech, ce.ElemLo, ce.ElemHi, ce.ByteLo, ce.ByteHi, elemLo, elemHi, byteLo, byteHi)
		}
		return ce
	}

	// Binarize: chunk 1 owns elements [768,1536) = mask words [12,24) =
	// bytes [96,192).
	ce := chunkErrFor(&Assignment{Tech: Binarize, Format: floatenc.FP32}, 1000)
	if ce.Chunk != 1 || ce.ElemLo != 768 || ce.ElemHi != 1536 || ce.ByteLo != 96 || ce.ByteHi != 192 {
		t.Fatalf("Binarize span: %+v", ce)
	}
	for _, want := range []string{"elements 768-1536", "payload bytes 96-192", "Binarize"} {
		if !strings.Contains(ce.Error(), want) {
			t.Fatalf("Binarize message %q missing %q", ce.Error(), want)
		}
	}

	// DPR FP16 packs 2 values/word: chunk 1 = elements [768,1536) = words
	// [384,768) = bytes [1536,3072).
	ce = chunkErrFor(&Assignment{Tech: DPR, Format: floatenc.FP16}, 1536*16+5)
	if ce.ElemLo != ce.Chunk*768 || ce.ByteLo != int64(ce.Chunk)*768*2 {
		t.Fatalf("DPR span: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "payload bytes") {
		t.Fatalf("DPR message %q missing byte range", ce.Error())
	}

	// ZVC: element range present, byte offsets are -1 and stay out of the
	// message.
	ce = chunkErrFor(&Assignment{Tech: ZVC, Format: floatenc.FP32}, 50)
	if ce.ByteLo != -1 || ce.ByteHi != -1 {
		t.Fatalf("ZVC byte offsets: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "elements ") {
		t.Fatalf("ZVC message %q missing element range", ce.Error())
	}
	if strings.Contains(ce.Error(), "payload bytes") {
		t.Fatalf("ZVC message %q must not claim byte offsets", ce.Error())
	}

	// The zero-value error (hand-built, no location) keeps the compact
	// legacy message.
	legacy := (&ChunkError{Chunk: 3, Chunks: 7, Tech: ZVC, Shape: tensor.Shape{4, 8}}).Error()
	if strings.Contains(legacy, "elements") {
		t.Fatalf("zero-value message %q must omit location", legacy)
	}
}
