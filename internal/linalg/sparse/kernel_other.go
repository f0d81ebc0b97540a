//go:build !amd64

package sparse

// The portable build runs the Go kernels of batch8.go only; the AVX2 form
// of the K=8 kernel is amd64-only (kernel_amd64.go).

// useAVX2 is always false off amd64.
var useAVX2 = false

func (m *BatchMatrix[T]) factorize8SIMD() bool { return false }

func (m *BatchMatrix[T]) solve8SIMD([]T, *Reach) bool { return false }
