package encoding

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

func countNonzeros(xs []float32) int {
	nnz := 0
	for _, v := range xs {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// TestCSRBytesAccounting pins the narrow layout's arithmetic, and the model
// at a buffer's measured sparsity against it.
func TestCSRBytesAccounting(t *testing.T) {
	// 100 non-zeros of 512 elements: 400 value bytes, 100 column bytes and
	// 3 row pointers (2 rows + 1).
	if got, want := CSRBytes(512, 100, 400), int64(400+100+3*4); got != want {
		t.Errorf("CSRBytes = %d, want %d", got, want)
	}
	if got, want := CSRBytes(600, 3, 6), int64(6+3+4*4); got != want { // a partial last row
		t.Errorf("CSRBytes over a partial row = %d, want %d", got, want)
	}
	for _, s := range []float64{0, 0.25, 0.5, 0.9} {
		n := 1 << 14
		nnz := countNonzeros(randomSparseSlice(7, n, s))
		model := CSRBytesModel(n, float64(n-nnz)/float64(n))
		if exact := CSRBytes(n, nnz, int64(nnz)*4); model != exact {
			t.Errorf("s=%v: model %d != exact %d", s, model, exact)
		}
	}
}

func TestCSRCompressionAt80PercentSparsity(t *testing.T) {
	// The paper reports >80% sparsity for VGG16 ReLU outputs; narrow CSR
	// then spends 5 bytes per nnz on 0.2n non-zeros ≈ n bytes, vs 4n dense:
	// ~4x compression.
	n := 1 << 16
	nnz := countNonzeros(randomSparseSlice(42, n, 0.8))
	ratio := float64(4*n) / float64(CSRBytes(n, nnz, int64(nnz)*4))
	if ratio < 3.6 || ratio > 4.2 {
		t.Errorf("compression at 80%% sparsity = %v, want ~4", ratio)
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

func TestPropertyCSRSizeMonotoneInSparsity(t *testing.T) {
	// More zeros can never increase the size.
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
		na, nb := countNonzeros(a), countNonzeros(b)
		return CSRBytes(n, nb, int64(nb)*4) <= CSRBytes(n, na, int64(na)*4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
