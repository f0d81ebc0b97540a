//go:build !amd64

package lineasybo

// The portable build runs the Go form of forwardSolve4; the AVX2 form is
// amd64-only (forward_amd64.go).

// useAVX2 is always false off amd64.
var useAVX2 = false

func forwardSolve4SIMD([]float64, [][4]float64, [][4]float64) bool { return false }
