package encoding

// crc32Combine computes the CRC32-C of the concatenation A||B given only
// crc(A), crc(B) and len(B). A CRC is a remainder modulo the generator
// polynomial P over GF(2), so appending len(B) zero bytes to A multiplies
// crc(A) by x^(8·len(B)) mod P, and xoring crc(B) accounts for B's actual
// bytes. The power is assembled from a table of x^(2^k) mod P by the binary
// decomposition of the length — a few dozen shift-and-xor steps per set bit
// (the form zlib's crc32_combine has taken since 1.2.12).
//
// This is what lets the chunked codec hash chunks independently (and in
// parallel) yet roll the pieces up into the exact checksum the serial
// whole-payload pass produces: Seal's combined value is bit-identical to
// checksum(), which the property tests pin.

// castagnoliReflected is the reflected form of the Castagnoli polynomial,
// matching crc32.MakeTable(crc32.Castagnoli)'s bit order: bit 31 is the
// coefficient of x^0.
const castagnoliReflected = 0x82f63b78

// multModP returns a·b mod P in the reflected representation.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0 && a&(m|(m-1)) != 0; m >>= 1 { // until a's remaining bits are all zero
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliReflected
		} else {
			b >>= 1
		}
	}
	return p
}

// xPow8 holds x^(8·2^k) mod P — the factor that appends 2^k zero bytes —
// for every k an int64 length can set. (zlib keeps 32 entries and wraps the
// index, which relies on x^(2^32) = x mod its polynomial; the Castagnoli
// polynomial is (x+1) times a degree-31 factor, so here the squares repeat
// with period 31 and a wrapped index would be wrong.)
var xPow8 = func() (t [63]uint32) {
	p := uint32(1) << 30 // x^1
	for i := 0; i < 3; i++ {
		p = multModP(p, p) // x^2, x^4, x^8
	}
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// crc32Combine returns the CRC of A||B from crc1 = CRC(A), crc2 = CRC(B)
// and len2 = len(B). Combining with an empty B (or an empty A via crc1 = 0)
// is the identity on the other operand.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	for k := 0; len2 != 0; k, len2 = k+1, len2>>1 {
		if len2&1 != 0 {
			crc1 = multModP(xPow8[k], crc1)
		}
	}
	return crc1 ^ crc2
}
