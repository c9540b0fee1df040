package encoding

// SSDC's size model. SSDC (Sparse Storage and Dense Compute) stashes a
// highly sparse ReLU output in a compressed sparse format between its
// forward and backward uses, so compute stays dense while storage is
// sparse. The planner prices it and the paper's figures print it; the
// runtime holds such a stash as ZVC instead, which narrow CSR beats only
// above about 89 % sparsity, so nothing here encodes or decodes.
//
// The modeled format is CSR with the paper's narrow value optimization:
// the flattened 2-D matrix is reshaped so it has at most 256 columns, which
// lets every column index fit in a single byte instead of the 4 bytes a
// generic cuSPARSE CSR uses. That moves the break-even sparsity for
// compression from 50% down to ~20%.

// NarrowCols is the column count the narrow value optimization reshapes to:
// the largest width whose column indices fit in one byte.
const NarrowCols = 256

// CSRBytes is the exact footprint of the narrow CSR of an n-element buffer
// with nnz non-zeros whose value array takes valueBytes: the values, one
// byte per column index and four per row pointer, ⌈n/NarrowCols⌉ + 1 of
// them.
func CSRBytes(n, nnz int, valueBytes int64) int64 {
	rows := int64((n + NarrowCols - 1) / NarrowCols)
	return valueBytes + int64(nnz) + (rows+1)*4
}

// CSRBytesModel predicts the CSR footprint of a buffer with n elements and
// the given zero fraction, under the narrow value optimization, with FP32
// values. The memory planner uses this to size SSDC stashes without
// materializing data.
func CSRBytesModel(n int, sparsity float64) int64 {
	nnz := NNZAt(n, sparsity)
	return CSRBytes(n, nnz, int64(nnz)*4)
}

// NNZAt is the modeled non-zero count of an n-element buffer at the given
// zero fraction, clamped to [0, 1] and rounded to the nearest element.
func NNZAt(n int, sparsity float64) int {
	sparsity = min(max(sparsity, 0), 1)
	return int(float64(float64(n)*(1-sparsity)) + 0.5)
}

// CSRWideBytesModel predicts the footprint of a conventional (cuSPARSE-
// style) CSR with 4-byte column indices over an n-element buffer flattened
// to the given column count. Used by the narrow-value ablation: with 4-byte
// indices compression only wins above 50% sparsity.
func CSRWideBytesModel(n, cols int, sparsity float64) int64 {
	nnz := int64(NNZAt(n, sparsity))
	rows := int64((n + cols - 1) / cols)
	return nnz*4 + nnz*4 + (rows+1)*4
}

// BreakEvenSparsity returns the minimum zero fraction at which the given
// bytes-per-nonzero of index metadata still compresses an n-element FP32
// buffer. For narrow CSR (1 byte/index) this is ~20%; for wide CSR (4
// bytes/index) it is ~50% — the paper's motivation for the optimization.
func BreakEvenSparsity(indexBytesPerNNZ float64) float64 {
	// dense = 4n; encoded ≈ nnz*(4+b) with nnz = (1-s)n.
	// encoded < dense  ⇔  (1-s)(4+b) < 4  ⇔  s > 1 - 4/(4+b).
	return 1 - 4/(4+indexBytesPerNNZ)
}
