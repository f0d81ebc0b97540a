//go:build !amd64

package randx

// The portable build converts every value with the scalar NormQuantile; the
// AVX2 kernel is amd64-only (quantile_amd64.go).

// useAVX2 is always false off amd64.
var useAVX2 = false

func quantilesSIMD(p []float64) []float64 { return p }
