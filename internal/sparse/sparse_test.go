package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"gist/internal/tensor"
)

func randomSparseSlice(seed uint64, n int, sparsity float64) []float32 {
	r := tensor.NewRNG(seed)
	xs := make([]float32, n)
	for i := range xs {
		if r.Float64() >= sparsity {
			xs[i] = r.Float32()*2 - 1
			if xs[i] == 0 {
				xs[i] = 0.5
			}
		}
	}
	return xs
}

func TestCSRRoundTripExact(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1000, 4096} {
		for _, s := range []float64{0, 0.2, 0.5, 0.8, 1} {
			xs := randomSparseSlice(uint64(n*7+int(s*10)+1), n, s)
			c := EncodeCSR(xs)
			got := c.Decode(nil)
			for i := range xs {
				if got[i] != xs[i] {
					t.Fatalf("n=%d s=%v: element %d = %v, want %v", n, s, i, got[i], xs[i])
				}
			}
		}
	}
}

func TestCSRShapeAndNNZ(t *testing.T) {
	xs := make([]float32, 600) // 3 rows of 256 (last partial)
	xs[0], xs[256], xs[599] = 1, 2, 3
	c := EncodeCSR(xs)
	if c.Rows != 3 || c.Cols != 256 {
		t.Fatalf("rows=%d cols=%d", c.Rows, c.Cols)
	}
	if c.NNZ() != 3 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	if c.RowPtr[0] != 0 || c.RowPtr[1] != 1 || c.RowPtr[2] != 2 || c.RowPtr[3] != 3 {
		t.Fatalf("RowPtr = %v", c.RowPtr)
	}
	// Element 599 is column 599-2*256 = 87 of row 2.
	if c.ColIdx[2] != 87 {
		t.Fatalf("ColIdx[2] = %d, want 87", c.ColIdx[2])
	}
}

func TestCSRColsBoundsPanic(t *testing.T) {
	for _, cols := range []int{0, -1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cols=%d should panic", cols)
				}
			}()
			EncodeCSRCols([]float32{1}, cols)
		}()
	}
}

func TestCSRDecodeClearsDst(t *testing.T) {
	xs := []float32{0, 5, 0}
	c := EncodeCSR(xs)
	dst := []float32{9, 9, 9}
	c.Decode(dst)
	if dst[0] != 0 || dst[1] != 5 || dst[2] != 0 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestCSRBytesAccounting(t *testing.T) {
	xs := make([]float32, 512)
	for i := 0; i < 100; i++ {
		xs[i*5] = 1
	}
	c := EncodeCSR(xs)
	wantValues := int64(100 * 4)
	wantMeta := int64(100) + int64(3*4) // 2 rows + 1 rowptr entries
	if c.ValueBytes() != wantValues {
		t.Errorf("ValueBytes = %d, want %d", c.ValueBytes(), wantValues)
	}
	if c.MetaBytes() != wantMeta {
		t.Errorf("MetaBytes = %d, want %d", c.MetaBytes(), wantMeta)
	}
	if c.Bytes() != wantValues+wantMeta {
		t.Errorf("Bytes = %d, want %d", c.Bytes(), wantValues+wantMeta)
	}
}

func TestCSRCompressionAt80PercentSparsity(t *testing.T) {
	// The paper reports >80% sparsity for VGG16 ReLU outputs; narrow CSR
	// then spends 5 bytes per nnz on 0.2n non-zeros ≈ n bytes, vs 4n dense:
	// ~4x compression.
	xs := randomSparseSlice(42, 1<<16, 0.8)
	c := EncodeCSR(xs)
	ratio := c.CompressionRatio()
	if ratio < 3.6 || ratio > 4.2 {
		t.Errorf("compression at 80%% sparsity = %v, want ~4", ratio)
	}
}

func TestCSRBytesModelMatchesEncoder(t *testing.T) {
	for _, s := range []float64{0, 0.25, 0.5, 0.9} {
		n := 1 << 14
		xs := randomSparseSlice(7, n, s)
		c := EncodeCSR(xs)
		model := CSRBytesModel(n, float64(n-c.NNZ())/float64(n))
		if model != c.Bytes() {
			t.Errorf("s=%v: model %d != actual %d", s, model, c.Bytes())
		}
	}
}

func TestCSRBytesModelClamps(t *testing.T) {
	if CSRBytesModel(1000, -0.5) != CSRBytesModel(1000, 0) {
		t.Error("negative sparsity should clamp to 0")
	}
	if CSRBytesModel(1000, 1.5) != CSRBytesModel(1000, 1) {
		t.Error("sparsity > 1 should clamp to 1")
	}
}

func TestBreakEvenSparsity(t *testing.T) {
	// Narrow (1-byte) indices: break-even at 1 - 4/5 = 20%.
	if got := BreakEvenSparsity(1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("narrow break-even = %v, want 0.2", got)
	}
	// Wide (4-byte) indices: break-even at 1 - 4/8 = 50%.
	if got := BreakEvenSparsity(4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("wide break-even = %v, want 0.5", got)
	}
}

func TestNarrowBeatsWideAt40PercentSparsity(t *testing.T) {
	// At 40% sparsity the narrow format must compress while the wide
	// format must not — the paper's motivating case.
	n := 1 << 16
	dense := int64(n) * 4
	narrow := CSRBytesModel(n, 0.4)
	wide := CSRWideBytesModel(n, 4096, 0.4)
	if narrow >= dense {
		t.Errorf("narrow CSR at 40%% sparsity should compress: %d vs dense %d", narrow, dense)
	}
	if wide < dense {
		t.Errorf("wide CSR at 40%% sparsity should NOT compress: %d vs dense %d", wide, dense)
	}
}

func TestDecodeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("csr: expected panic")
		}
	}()
	EncodeCSR([]float32{1, 0, 2}).Decode(make([]float32, 5))
}

func TestPropertyAllFormatsLossless(t *testing.T) {
	f := func(vals []float32, mask []bool) bool {
		n := min(len(vals), len(mask))
		xs := make([]float32, n)
		for i := 0; i < n; i++ {
			if mask[i] {
				xs[i] = vals[i]
			}
		}
		csr := EncodeCSR(xs).Decode(nil)
		for i := range xs {
			if !sameF32(csr[i], xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCSRSizeMonotoneInSparsity(t *testing.T) {
	// More zeros can never increase the encoded size.
	f := func(seed uint64) bool {
		n := 2048
		a := randomSparseSlice(seed, n, 0.3)
		b := append([]float32(nil), a...)
		// Zero out half of the non-zeros in b.
		r := tensor.NewRNG(seed + 1)
		for i := range b {
			if b[i] != 0 && r.Float64() < 0.5 {
				b[i] = 0
			}
		}
		return EncodeCSR(b).Bytes() <= EncodeCSR(a).Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestValidateRejectsRowPointerPastValues: a row whose pointers stay within
// one row's width but run past the value array (a later row going back down
// to the true count) is an error, not an out-of-range index.
func TestValidateRejectsRowPointerPastValues(t *testing.T) {
	c := EncodeCSR(randomSparseSlice(5, 3*NarrowCols, 0.9))
	if err := c.Validate(); err != nil {
		t.Fatalf("encoder output rejected: %v", err)
	}
	nnz := c.RowPtr[c.Rows]
	if nnz >= NarrowCols {
		t.Fatalf("%d values do not fit one row", nnz)
	}
	c.RowPtr[1] = nnz + 1
	if err := c.Validate(); err == nil {
		t.Fatal("row pointers past the values validated")
	}
}
