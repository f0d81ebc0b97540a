package sample

import (
	"math/bits"

	"github.com/eda-go/moheco/internal/randx"
)

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
// v is drawn as rng.Int63()>>32, exactly as Int31 does, so the stream and
// the permutation are rand.Perm's bit for bit.
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

// intn returns rng.Intn(m) for the m the step was made for, consuming the
// same stream values.
func (st permStep) intn(rng *randx.Stream, m uint32) int32 {
	v := int32(rng.Int63() >> 32)
	if st.mul == 0 {
		return v & st.bound
	}
	for v > st.bound {
		v = int32(rng.Int63() >> 32)
	}
	hi, _ := bits.Mul64(st.mul*uint64(v), uint64(m))
	return int32(hi)
}

// permSteps is the permutation buffer of one plan; entry i holds the
// reduction of Intn(i+1).
type permSteps []permStep

// newPermSteps returns the buffer for n ≤ 2³¹−1 entries.
func newPermSteps(n int) permSteps {
	steps := make(permSteps, n)
	for i := range steps {
		steps[i] = newPermStep(uint32(i + 1))
	}
	return steps
}

// shuffle refills the buffer with rand.Perm's swap sequence.
func (s permSteps) shuffle(rng *randx.Stream) {
	for i := range s {
		k := s[i].intn(rng, uint32(i+1))
		s[i].perm = s[k].perm
		s[k].perm = int32(i)
	}
}
