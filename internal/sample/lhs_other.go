//go:build !amd64

package sample

// The portable build runs every LHS phase in Go; the AVX2 kernels are
// amd64-only (lhs_amd64.go).

// useAVX2 is always false off amd64.
var useAVX2 = false

func permIndex4(k *int32, blk *int64, n int) int { return 0 }

func jitter4(u *float64, perm *int32, vals *int64, cnt int, n, lo, hi float64) int { return 0 }
