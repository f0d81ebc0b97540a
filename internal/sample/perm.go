package sample

import "math/bits"

// permStep is the precomputed reduction of the draw rand.Perm makes at entry
// i of its permutation, rng.Intn(i+1).
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

// permSteps holds the reductions of one plan; entry i holds that of
// Intn(i+1), which depends on i alone, so a table made for one n serves
// every smaller n as its prefix.
type permSteps []permStep

// permSteps returns b's reduction table for n ≤ 2³¹−1 entries, growing it
// by the entries it lacks.
func (b *Buffer) permSteps(n int) permSteps {
	if len(b.steps) < n {
		grown := make(permSteps, n)
		copy(grown, b.steps)
		for i := len(b.steps); i < n; i++ {
			grown[i] = newPermStep(uint32(i + 1))
		}
		b.steps = grown
	}
	return b.steps[:n]
}

// shuffle refills perm with rand.Perm's swap sequence from entry from on,
// reading vals from value from, and returns the position after the last
// value it read. Entries below from must already hold the sequence's first
// from swaps, read from values 0 … from−1 (no rejection among them).
func (s permSteps) shuffle(perm []int32, vals values, from int) int {
	pos := from
	for i := from; i < len(s); i++ {
		k, ok := int32(0), false
		for !ok {
			k, ok = s[i].reduce(int32(vals.at(pos)>>32), uint32(i+1))
			pos++
		}
		perm[i] = perm[k]
		perm[k] = int32(i)
	}
	return pos
}

// permute refills perm with rand.Perm's swap sequence for the values of
// vals, from value 0, and returns the number of values it read. With AVX2
// the index pass maps the block to the Intn(i+1) draws four at a time, and
// a swap loop applies them; from the first group holding a rejection (or
// for the n mod 4 tail) the scalar shuffle takes over, at the entry and
// the value where the pass stopped.
func (s permSteps) permute(perm, idx []int32, vals values) int {
	done := 0
	if useAVX2 && len(s) >= 4 {
		done = permIndex4(&idx[0], &vals.blk[0], len(s))
		for i, k := range idx[:done] {
			perm[i] = perm[k]
			perm[k] = int32(i)
		}
	}
	return s.shuffle(perm, vals, done)
}
