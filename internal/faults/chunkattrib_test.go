package faults_test

import (
	"fmt"
	"testing"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/tensor"
)

// TestInjectedFaultTripsExactlyItsChunk closes the loop between the fault
// injector and the chunked codec: the injector flips one random payload
// bit, the event log names the bit, and Verify's chunk-level attribution
// matches ChunkOfBit — corruption is localized to exactly the chunk that
// holds the flipped bit.
func TestInjectedFaultTripsExactlyItsChunk(t *testing.T) {
	rng := tensor.NewRNG(11)
	c := encoding.Codec{Pool: parallel.NewPool(2), ChunkElems: 768}
	inj := faults.New(faults.Config{Seed: 99, BitFlipRate: 1})
	assignments := []*encoding.Assignment{
		{Tech: encoding.Binarize, Format: floatenc.FP32},
		{Tech: encoding.ZVC, Format: floatenc.FP32},
		{Tech: encoding.ZVC, Format: floatenc.FP16},
		{Tech: encoding.DPR, Format: floatenc.FP16},
		{Tech: encoding.DPR, Format: floatenc.FP10},
		{Tech: encoding.DPR, Format: floatenc.FP8},
	}
	for _, as := range assignments {
		tt := tensor.New(4096)
		for i := range tt.Data {
			if rng.Float64() >= 0.8 {
				tt.Data[i] = rng.Float32()*2 - 1
			}
		}
		enc := &encoding.EncodedStash{}
		if _, err := c.EncodeStashAdaptiveInto(enc, as, tt); err != nil {
			t.Fatalf("%v/%s: encode: %v", as.Tech, as.Format, err)
		}
		c.Seal(enc)
		before := len(inj.Events())
		if !inj.CorruptStash(faults.Key{Step: 1}, "probe", enc) {
			t.Fatalf("%v/%s: injector did not fire at rate 1", as.Tech, as.Format)
		}
		events := inj.Events()
		if len(events) != before+1 {
			t.Fatalf("%v/%s: %d new events, want 1", as.Tech, as.Format, len(events)-before)
		}
		var bit, bits int
		if _, err := fmt.Sscanf(events[len(events)-1].Detail, "payload bit %d of %d", &bit, &bits); err != nil {
			t.Fatalf("%v/%s: unparseable event detail %q", as.Tech, as.Format, events[len(events)-1].Detail)
		}
		if bits != enc.PayloadBits() {
			t.Fatalf("%v/%s: event says %d payload bits, stash has %d", as.Tech, as.Format, bits, enc.PayloadBits())
		}
		err := c.Verify(enc)
		if err == nil {
			t.Fatalf("%v/%s: injected flip of bit %d undetected", as.Tech, as.Format, bit)
		}
		chunk, ok := encoding.CorruptedChunk(err)
		if !ok {
			t.Fatalf("%v/%s: no chunk localization for injected flip: %v", as.Tech, as.Format, err)
		}
		if want := enc.ChunkOfBit(bit); chunk != want {
			t.Fatalf("%v/%s: injected flip of bit %d attributed to chunk %d, want %d",
				as.Tech, as.Format, bit, chunk, want)
		}
	}
}
