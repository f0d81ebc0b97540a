package linalg

import "math"

// NormInf returns the maximum absolute element of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sub returns a - b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
