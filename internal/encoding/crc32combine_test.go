package encoding

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// The matrix-squaring crc32_combine (zlib before 1.2.12) the codec shipped
// with, kept as the oracle for the multiply-mod-P form: it rebuilds the
// 32x32 GF(2) operator of one zero byte and squares it log2(len2) times.

func refGF2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
	}
	return sum
}

func refGF2MatrixSquare(square, mat *[32]uint32) {
	for n := 0; n < 32; n++ {
		square[n] = refGF2MatrixTimes(mat, mat[n])
	}
}

func refCRC32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [32]uint32
	odd[0] = castagnoliReflected
	row := uint32(1)
	for n := 1; n < 32; n++ {
		odd[n] = row
		row <<= 1
	}
	refGF2MatrixSquare(&even, &odd)
	refGF2MatrixSquare(&odd, &even)
	for {
		refGF2MatrixSquare(&even, &odd)
		if len2&1 != 0 {
			crc1 = refGF2MatrixTimes(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		refGF2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc1 = refGF2MatrixTimes(&odd, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// TestCRC32CombineMatchesMatrixOracle: same result for every (crc1, crc2,
// len2) — every length up to 4096 with seeded and corner CRCs, then seeded
// lengths across the whole int64 range.
func TestCRC32CombineMatchesMatrixOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check := func(crc1, crc2 uint32, len2 int64) {
		t.Helper()
		if got, want := crc32Combine(crc1, crc2, len2), refCRC32Combine(crc1, crc2, len2); got != want {
			t.Fatalf("crc32Combine(%#x, %#x, %d) = %#x, the matrix form gives %#x", crc1, crc2, len2, got, want)
		}
	}
	for len2 := int64(-1); len2 <= 4096; len2++ {
		check(0, 0, len2)
		check(1, 0, len2)
		check(0x80000000, 0xffffffff, len2)
		check(0xffffffff, 1, len2)
		for i := 0; i < 4; i++ {
			check(r.Uint32(), r.Uint32(), len2)
		}
	}
	for i := 0; i < 4000; i++ {
		check(r.Uint32(), r.Uint32(), r.Int63()>>uint(r.Intn(63)))
	}
	check(r.Uint32(), r.Uint32(), 1<<63-1)
}

// TestCRC32CombineConcatenation checks the definition itself on real bytes.
func TestCRC32CombineConcatenation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	buf := make([]byte, 100000)
	r.Read(buf)
	for _, cut := range []int{0, 1, 7, 4096, 65537, len(buf) - 1, len(buf)} {
		a, b := buf[:cut], buf[cut:]
		got := crc32Combine(crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable), int64(len(b)))
		if want := crc32.Checksum(buf, crcTable); got != want {
			t.Fatalf("cut %d: combined %#x, whole %#x", cut, got, want)
		}
	}
}
