package sparse

import (
	"encoding/binary"
	"math"
	"testing"
)

// bytesToFloats reinterprets fuzz bytes as a float32 slice, mapping NaN
// payloads through so round-trip comparison stays well defined.
func bytesToFloats(data []byte) []float32 {
	n := len(data) / 4
	if n > 4096 {
		n = 4096
	}
	xs := make([]float32, n)
	for i := 0; i < n; i++ {
		bits := binary.LittleEndian.Uint32(data[i*4:])
		xs[i] = math.Float32frombits(bits)
	}
	return xs
}

func sameF32(a, b float32) bool {
	return a == b || (a != a && b != b) // NaN-tolerant equality
}

func FuzzCSRRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 4})
	f.Add(make([]byte, 1024))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := bytesToFloats(data)
		c := EncodeCSR(xs)
		got := c.Decode(nil)
		if len(got) != len(xs) {
			t.Fatal("length changed")
		}
		for i := range xs {
			if !sameF32(got[i], xs[i]) {
				t.Fatalf("element %d: %v != %v", i, got[i], xs[i])
			}
		}
		if c.Bytes() < 0 || c.NNZ() > len(xs) {
			t.Fatal("size accounting broken")
		}
	})
}
