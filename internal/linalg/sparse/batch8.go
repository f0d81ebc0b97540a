package sparse

// Constant-width specialization of the lockstep kernel at the auto-resolved
// lane count. The generic Factorize/Solve bodies index every lane group with
// the runtime lane count k, which costs the compiler a bounds check per lane
// access. With the width fixed at compile time the same loops run over
// *[8]T array views: bounds checks vanish and the lane loops unroll. The
// per-lane floating-point sequence is untouched — these are the exact
// generic loops with k constant, over the same elimination schedule and
// pivot step — so the lane determinism contract (lane l performs exactly
// the one-lane kernel's operation sequence) holds bit for bit.

const kernelWidth = 8

func (m *BatchMatrix[T]) factorize8() {
	const k = kernelWidth
	s := m.sym
	vals, inv, cols, upd := m.vals, m.inv, s.cols, s.upd
	for l := 0; l < k; l++ {
		m.errs[l] = nil
	}
	p := 0
	for i := 0; i < s.n; i++ {
		dp := s.diag[i]
		for t := s.rowPtr[i]; t < dp; t++ {
			c := cols[t]
			lo := s.diag[c] + 1
			dst := upd[p : p+s.rowPtr[c+1]-lo]
			p += len(dst)
			lt := (*[k]T)(vals[t*k:])
			ic := (*[k]T)(inv[c*k:])
			// Per-lane multiplier with the generic kernel's zero-skip guard
			// (v -= 0*u can flip the sign of a negative zero).
			allNZ := true
			for l := 0; l < k; l++ {
				lt[l] *= ic[l]
				if lt[l] == 0 {
					allNZ = false
				}
			}
			if allNZ {
				for j, d := range dst {
					vd := (*[k]T)(vals[d*k:])
					vu := (*[k]T)(vals[(lo+j)*k:])
					for l := 0; l < k; l++ {
						vd[l] -= lt[l] * vu[l]
					}
				}
				continue
			}
			for j, d := range dst {
				vd := (*[k]T)(vals[d*k:])
				vu := (*[k]T)(vals[(lo+j)*k:])
				for l := 0; l < k; l++ {
					if lt[l] != 0 {
						vd[l] -= lt[l] * vu[l]
					}
				}
			}
		}
		if m.pivots(vals[dp*k:dp*k+k], inv[i*k:i*k+k], m.errs) {
			m.pivotErrs(i)
		}
	}
}

func (m *BatchMatrix[T]) solve8(b []T, r *Reach) {
	const k = kernelWidth
	s := m.sym
	vals, cols, pb, inv := m.vals, s.cols, m.pb, m.inv
	for _, i := range r.fwd {
		*(*[k]T)(pb[i*k:]) = *(*[k]T)(b[s.rowInv[i]*k:])
	}
	for _, i := range r.fwd {
		pi := (*[k]T)(pb[i*k:])
		for t := s.rowPtr[i]; t < s.diag[i]; t++ {
			vt := (*[k]T)(vals[t*k:])
			pc := (*[k]T)(pb[cols[t]*k:])
			for l := 0; l < k; l++ {
				pi[l] -= vt[l] * pc[l]
			}
		}
	}
	for i := s.n - 1; i >= r.lo; i-- {
		pi := (*[k]T)(pb[i*k:])
		for t := s.diag[i] + 1; t < s.rowPtr[i+1]; t++ {
			vt := (*[k]T)(vals[t*k:])
			pc := (*[k]T)(pb[cols[t]*k:])
			for l := 0; l < k; l++ {
				pi[l] -= vt[l] * pc[l]
			}
		}
		ri := (*[k]T)(inv[i*k:])
		for l := 0; l < k; l++ {
			pi[l] *= ri[l]
		}
	}
	for _, c := range r.out {
		*(*[k]T)(b[c*k:]) = *(*[k]T)(pb[s.colPerm[c]*k:])
	}
}
