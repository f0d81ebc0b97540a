// Package ocba implements the Optimal Computing Budget Allocation rule of
// Chen et al. (2000), equation (1) of the paper: given current sample means
// and standard deviations of S stochastic candidates, distribute a total
// simulation budget so that the probability of correctly selecting the best
// candidate is asymptotically maximized —
//
//	n_b = σ_b · sqrt( Σ_{i≠b} n_i² / σ_i² )
//	n_i / n_j = (σ_i/δ_{b,i})² / (σ_j/δ_{b,j})²   for i, j ≠ b
//
// where b is the observed best, σ_i the estimate noise, and δ_{b,i} the mean
// gap to the best. Candidates close to the best with noisy estimates receive
// many samples; clearly inferior ones receive few.
package ocba

import (
	"math"

	"github.com/eda-go/moheco/internal/engine"
)

// minGap floors δ so ties with the best do not produce infinite weights;
// it is expressed in the units of the means (yield here, so 0.5%).
const minGap = 5e-3

// minStd floors σ to keep ratios finite.
const minStd = 1e-6

// Allocate returns the target number of samples per candidate for a total
// budget of total samples (Σ result ≈ total; rounding distributes leftovers
// to the highest-weight candidates). means and stds must have equal length.
// Maximization is assumed: the best candidate is the one with the largest
// mean. A single candidate receives the whole budget.
func Allocate(means, stds []float64, total int) []int {
	s := len(means)
	if s == 0 || total <= 0 {
		return make([]int, s)
	}
	if len(stds) != s {
		panic("ocba: means and stds length mismatch")
	}
	if s == 1 {
		return []int{total}
	}
	b := 0
	for i, m := range means {
		if m > means[b] {
			b = i
		}
	}
	// Relative weights for the non-best candidates: w_i = (σ_i/δ_i)².
	w := make([]float64, s)
	for i := range means {
		if i == b {
			continue
		}
		delta := means[b] - means[i]
		if delta < minGap {
			delta = minGap
		}
		sd := stds[i]
		if sd < minStd {
			sd = minStd
		}
		w[i] = (sd / delta) * (sd / delta)
	}
	// Best candidate: n_b = σ_b·sqrt(Σ n_i²/σ_i²) with n_i ∝ w_i.
	sum := 0.0
	for i := range means {
		if i == b {
			continue
		}
		sd := stds[i]
		if sd < minStd {
			sd = minStd
		}
		sum += (w[i] / sd) * (w[i] / sd)
	}
	sdB := stds[b]
	if sdB < minStd {
		sdB = minStd
	}
	w[b] = sdB * math.Sqrt(sum)

	// Normalize to the budget.
	wSum := 0.0
	for _, v := range w {
		wSum += v
	}
	out := make([]int, s)
	if wSum <= 0 {
		// Degenerate: spread evenly.
		for i := range out {
			out[i] = total / s
		}
		out[b] += total - (total/s)*s
		return out
	}
	assigned := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, s)
	for i, v := range w {
		exact := float64(total) * v / wSum
		n := int(exact)
		out[i] = n
		assigned += n
		rems = append(rems, rem{i, exact - float64(n)})
	}
	// Distribute the rounding leftovers to the largest fractional parts.
	for assigned < total {
		bestIdx, bestFrac := -1, -1.0
		for j, r := range rems {
			if r.frac > bestFrac {
				bestIdx, bestFrac = j, r.frac
			}
		}
		out[rems[bestIdx].idx]++
		rems[bestIdx].frac = -2
		assigned++
	}
	return out
}

// Sequencer drives the standard sequential OCBA loop: start every candidate
// at n0 samples, then repeatedly grow the budget by delta and top candidates
// up to their newly computed targets until the total budget is spent. The
// rounds themselves are inherently sequential (each allocation reads the
// means and variances the previous round produced), but within a round the
// per-candidate increments are independent and run on the worker pool.
type Sequencer struct {
	// N0 is the initial number of samples per candidate (paper: 15).
	N0 int
	// Delta is the per-round budget increment (paper-style default: 10).
	Delta int
	// Workers bounds the goroutines executing one round's sample
	// increments (0 = GOMAXPROCS, 1 = sequential). A round's increments
	// are computed before any sample is drawn and candidates own private
	// sample streams, so the allocation sequence is identical for every
	// worker count.
	Workers int
}

// Candidate is the minimal interface the sequencer needs; satisfied by
// *yieldsim.Candidate.
type Candidate interface {
	AddSamples(n int) error
	Samples() int
	Yield() float64
	Std() float64
}

// Run spends a total budget of totalBudget samples across the candidates.
// It returns the number of samples actually accounted. Candidates may
// arrive with samples already taken; those count against the budget.
func (s *Sequencer) Run(cands []Candidate, totalBudget int) (int, error) {
	if len(cands) == 0 {
		return 0, nil
	}
	n0 := s.N0
	if n0 <= 0 {
		n0 = 15
	}
	delta := s.Delta
	if delta <= 0 {
		delta = 10
	}
	used := 0
	adds := make([]int, len(cands))
	for i, c := range cands {
		adds[i] = n0 - c.Samples()
	}
	if err := RunIncrements(s.Workers, cands, adds); err != nil {
		return used, err
	}
	for _, c := range cands {
		used += c.Samples()
	}
	for used < totalBudget {
		grow := delta * len(cands) / 5
		if grow < delta {
			grow = delta
		}
		next := used + grow
		if next > totalBudget {
			next = totalBudget
		}
		means := make([]float64, len(cands))
		stds := make([]float64, len(cands))
		for i, c := range cands {
			means[i] = c.Yield()
			stds[i] = c.Std()
		}
		targets := Allocate(means, stds, next)
		roundAdd := 0
		for i, c := range cands {
			if adds[i] = targets[i] - c.Samples(); adds[i] > 0 {
				roundAdd += adds[i]
			}
		}
		if err := RunIncrements(s.Workers, cands, adds); err != nil {
			return used, err
		}
		used += roundAdd
		if roundAdd == 0 {
			// All targets below current counts (allocation wants to move
			// budget it cannot reclaim); push the remainder to the best.
			b := 0
			for i, c := range cands {
				if c.Yield() > cands[b].Yield() {
					b = i
				}
			}
			add := next - used
			if add <= 0 {
				break
			}
			if err := cands[b].AddSamples(add); err != nil {
				return used, err
			}
			used += add
		}
	}
	return used, nil
}

// RunIncrements executes precomputed per-candidate sample increments on the
// worker pool; non-positive increments are skipped. Because the increments
// are fixed before any sample is drawn and candidates own private sample
// streams, the outcome is identical for every worker count, and errors
// surface in candidate order. It is the shared execution primitive of the
// sequencer's allocation rounds and core's stage-2 promotions.
func RunIncrements(workers int, cands []Candidate, adds []int) error {
	return engine.ForEachN(workers, len(cands), func(i int) error {
		if adds[i] <= 0 {
			return nil
		}
		return cands[i].AddSamples(adds[i])
	})
}
