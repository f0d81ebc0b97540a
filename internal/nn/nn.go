// Package nn implements the response-surface baseline of the paper's §3.4:
// a single-hidden-layer feed-forward network (20 tanh neurons, as in the
// paper) trained with the Levenberg–Marquardt algorithm to regress yield
// against design variables. It exists to reproduce the paper's negative
// result — that an NN response surface trained on optimizer history cannot
// reach useful yield accuracy in nanometre technologies at reasonable cost.
package nn

import (
	"errors"
	"fmt"
	"math"

	"github.com/eda-go/moheco/internal/linalg"
	"github.com/eda-go/moheco/internal/randx"
)

// Network is a dense in→hidden(tanh)→1(linear) regressor.
type Network struct {
	in, hidden int
	// Parameters packed as [W1 (hidden×in), b1 (hidden), W2 (hidden), b2].
	w []float64
	// Input normalization: x_norm = (x - shift) / scale.
	shift, scale []float64
}

// New creates a network with small random weights.
func New(inputs, hidden int, seed uint64) *Network {
	if inputs < 1 || hidden < 1 {
		panic(fmt.Sprintf("nn: invalid shape %d/%d", inputs, hidden))
	}
	n := &Network{
		in:     inputs,
		hidden: hidden,
		w:      make([]float64, hidden*inputs+hidden+hidden+1),
		shift:  make([]float64, inputs),
		scale:  ones(inputs),
	}
	rng := randx.New(seed)
	for i := range n.w {
		n.w[i] = 0.5 * rng.NormFloat64() / math.Sqrt(float64(inputs))
	}
	return n
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// SetNormalization fixes the input normalization from bounds so training
// and prediction see inputs in roughly [-1, 1].
func (n *Network) SetNormalization(lo, hi []float64) {
	for i := range n.shift {
		n.shift[i] = (lo[i] + hi[i]) / 2
		s := (hi[i] - lo[i]) / 2
		if s <= 0 {
			s = 1
		}
		n.scale[i] = s
	}
}

// forward computes the output and, optionally, the gradient of the output
// with respect to every parameter (for the LM Jacobian).
func (n *Network) forward(x []float64, grad []float64) float64 {
	h := n.hidden
	in := n.in
	acts := make([]float64, h)
	out := n.w[h*in+h+h] // b2
	for j := 0; j < h; j++ {
		s := n.w[h*in+j] // b1[j]
		row := n.w[j*in : (j+1)*in]
		for k := 0; k < in; k++ {
			s += row[k] * (x[k] - n.shift[k]) / n.scale[k]
		}
		a := math.Tanh(s)
		acts[j] = a
		out += n.w[h*in+h+j] * a // W2[j]
	}
	if grad != nil {
		for j := 0; j < h; j++ {
			da := 1 - acts[j]*acts[j] // tanh'
			w2 := n.w[h*in+h+j]
			for k := 0; k < in; k++ {
				grad[j*in+k] = w2 * da * (x[k] - n.shift[k]) / n.scale[k]
			}
			grad[h*in+j] = w2 * da   // ∂/∂b1[j]
			grad[h*in+h+j] = acts[j] // ∂/∂W2[j]
		}
		grad[h*in+h+h] = 1 // ∂/∂b2
	}
	return out
}

// Predict evaluates the network on x.
func (n *Network) Predict(x []float64) float64 {
	if len(x) != n.in {
		panic("nn: input dimension mismatch")
	}
	return n.forward(x, nil)
}

// TrainOptions tunes Levenberg–Marquardt.
type TrainOptions struct {
	MaxIter int // LM iterations (default 120)
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.MaxIter == 0 {
		o.MaxIter = 120
	}
	return o
}

// Levenberg–Marquardt constants.
const (
	lambda0     = 1e-2 // initial damping
	lambdaMax   = 1e10 // divergence guard
	tolReduce   = 1e-9 // stop when the SSE improvement ratio falls below
	weightDecay = 1e-3 // L2 regularization added to the normal equations
)

// Train fits the network to (X, Y) with Levenberg–Marquardt and returns the
// final root-mean-square training error.
func (n *Network) Train(X [][]float64, Y []float64, opts TrainOptions) (float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return 0, errors.New("nn: empty or mismatched training set")
	}
	for _, x := range X {
		if len(x) != n.in {
			return 0, errors.New("nn: training input dimension mismatch")
		}
	}
	o := opts.withDefaults()
	nSamp := len(X)
	nPar := len(n.w)

	// The objective is the ridge-regularized SSE: Σr² + wd·‖w‖².
	penalty := func() float64 {
		s := 0.0
		for _, v := range n.w {
			s += v * v
		}
		return weightDecay * s
	}
	residuals := func() ([]float64, float64) {
		r := make([]float64, nSamp)
		sse := penalty()
		for i, x := range X {
			r[i] = n.forward(x, nil) - Y[i]
			sse += r[i] * r[i]
		}
		return r, sse
	}

	lambda := lambda0
	_, sse := residuals()
	J := linalg.NewMatrix(nSamp, nPar)
	trainRMS := func() float64 {
		s := sse - penalty()
		if s < 0 {
			s = 0
		}
		return math.Sqrt(s / float64(nSamp))
	}
	for iter := 0; iter < o.MaxIter; iter++ {
		// Build the Jacobian and residual at the current weights.
		r := make([]float64, nSamp)
		grad := make([]float64, nPar)
		for i, x := range X {
			r[i] = n.forward(x, grad) - Y[i]
			copy(J.Data[i*nPar:(i+1)*nPar], grad)
		}
		// Normal equations of the ridge objective:
		// (JᵀJ + wd·I + λ·I) δ = -(Jᵀ r + wd·w).
		jt := J.Transpose()
		jtj := jt.Mul(J)
		jtr := jt.MulVec(r)
		for i := range jtr {
			jtr[i] += weightDecay * n.w[i]
		}

		improved := false
		for !improved {
			A := jtj.Clone()
			for i := 0; i < nPar; i++ {
				A.Add(i, i, lambda+weightDecay)
			}
			rhs := make([]float64, nPar)
			for i := range rhs {
				rhs[i] = -jtr[i]
			}
			delta, err := linalg.SolveSystem(A, rhs)
			if err != nil {
				lambda *= 10
				if lambda > lambdaMax {
					return trainRMS(), nil
				}
				continue
			}
			backup := append([]float64(nil), n.w...)
			for i := range n.w {
				n.w[i] += delta[i]
			}
			_, newSSE := residuals()
			if newSSE < sse {
				improvement := (sse - newSSE) / (sse + 1e-30)
				sse = newSSE
				lambda /= 10
				if lambda < 1e-12 {
					lambda = 1e-12
				}
				improved = true
				if improvement < tolReduce {
					return trainRMS(), nil
				}
			} else {
				copy(n.w, backup)
				lambda *= 10
				if lambda > lambdaMax {
					return trainRMS(), nil
				}
			}
		}
	}
	return trainRMS(), nil
}
