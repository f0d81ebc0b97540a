//go:build !amd64

package sparse

// The portable build runs the generic lane loop at K=8; the AVX2 kernel is
// amd64-only (kernel_amd64.go).

// useAVX2 is always false off amd64.
var useAVX2 = false

func (m *BatchMatrix[T]) factorize8SIMD() bool { return false }

func (m *BatchMatrix[T]) solve8SIMD([]T, *Reach) bool { return false }
