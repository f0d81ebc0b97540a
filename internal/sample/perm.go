package sample

import "math/bits"

// permStep is one entry of the LHS permutation buffer together with the
// precomputed reduction of the draw rand.Perm makes there, rng.Intn(i+1).
// math/rand's Int31n divides twice per call, once for its rejection bound
// and once for the remainder; both depend only on i, so Draw computes them
// once per plan and reuses them for every coordinate:
//
//   - i+1 a power of two: Int31n masks, v & i (mul = 0, bound = i);
//   - otherwise: v is redrawn while v > bound, Int31n's rejection bound
//     2³¹−1 − 2³¹ mod (i+1), and v mod (i+1) is Lemire's fastmod
//     ⌊((mul·v) mod 2⁶⁴)·(i+1) / 2⁶⁴⌋ with mul = ⌈2⁶⁴/(i+1)⌉, exact for
//     every 32-bit v.
//
// v is drawn as Int63()>>32, exactly as Int31 does, so the stream and the
// permutation are rand.Perm's bit for bit.
type permStep struct {
	perm  int32
	bound int32
	mul   uint64
}

// newPermStep returns the reduction of rng.Intn(m) for 1 ≤ m ≤ 2³¹−1.
func newPermStep(m uint32) permStep {
	if m&(m-1) == 0 {
		return permStep{bound: int32(m - 1)}
	}
	return permStep{bound: int32((1 << 31) - 1 - (1<<31)%m), mul: ^uint64(0)/uint64(m) + 1}
}

// reduce maps one Int31 value v to rng.Intn(m) for the m the step was made
// for, or reports false where Int31n rejects v and draws again.
func (st permStep) reduce(v int32, m uint32) (int32, bool) {
	if st.mul == 0 {
		return v & st.bound, true
	}
	if v > st.bound {
		return 0, false
	}
	hi, _ := bits.Mul64(st.mul*uint64(v), uint64(m))
	return int32(hi), true
}

// permSteps is the permutation buffer of one plan; entry i holds the
// reduction of Intn(i+1), which depends on i alone, so a buffer made for
// one n serves every smaller n as its prefix.
type permSteps []permStep

// permSteps returns b's permutation buffer for n ≤ 2³¹−1 entries, growing
// it by the entries it lacks.
func (b *Buffer) permSteps(n int) permSteps {
	if len(b.perm) < n {
		grown := make(permSteps, n)
		copy(grown, b.perm)
		for i := len(b.perm); i < n; i++ {
			grown[i] = newPermStep(uint32(i + 1))
		}
		b.perm = grown
	}
	return b.perm[:n]
}

// shuffle refills the buffer with rand.Perm's swap sequence, reading vals
// from value 0, and returns the number of values it read.
func (s permSteps) shuffle(vals values) (pos int) {
	for i := range s {
		k, ok := int32(0), false
		for !ok {
			k, ok = s[i].reduce(int32(vals.at(pos)>>32), uint32(i+1))
			pos++
		}
		s[i].perm = s[k].perm
		s[k].perm = int32(i)
	}
	return pos
}
