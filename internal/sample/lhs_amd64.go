package sample

import "github.com/eda-go/moheco/internal/cpufeat"

// AVX2 forms of two LHS phases, in lhs_amd64.s. Each keeps the bits of the
// scalar phase it replaces (perm.go's shuffle, lhsDraw's jitter loop), and
// each stops at a group of four it cannot decide, which the scalar phase
// then takes; see DESIGN.md "Sample-plan and surrogate cost".

// useAVX2 selects the assembly kernels. It is fixed at start-up from CPUID
// and switched only by in-package tests, to run both paths.
var useAVX2 = cpufeat.AVX2

// permIndex4 writes k[i] = Intn(i+1) as rand.Perm draws it from the value
// blk[i], four entries at a time: v = blk[i]>>32 and m = i+1 as doubles,
// q = ⌊v/m⌋ by VDIVPD and a round down, k = v − m·q. Both are exact: v and
// m are below 2³¹, so v/m is an integer or at least 1/m from one, far more
// than the division's rounding error. It stops at the first group of four
// holding a v that Int31n rejects, m·(q+1) > 2³¹, or when fewer than four
// entries of n are left, and returns the number of entries written, a
// multiple of four.
//
//go:noescape
func permIndex4(k *int32, blk *int64, n int) int

// jitter4 writes u[perm[i]] = (perm[i] + f)/n with f = float64(vals[i])/2⁶³,
// clamped into (0, 1) by lo = 0.5/n and hi = 1 − lo, four rows at a time.
// The int63 → double conversion is the 2⁸⁴/2⁵² split, which rounds once as
// CVTSI2SDQ does; the division by 2⁶³ is a multiply by 2⁻⁶³, exact. It
// stops at the first group of four holding an f that rounds to 1, which
// rand.Float64 redraws, or when fewer than four entries of cnt are left,
// and returns the number of rows written, a multiple of four.
//
//go:noescape
func jitter4(u *float64, perm *int32, vals *int64, cnt int, n, lo, hi float64) int
