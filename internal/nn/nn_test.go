package nn

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/randx"
)

func TestShapeAndParams(t *testing.T) {
	n := New(10, 20, 1)
	// 20·10 weights + 20 biases + 20 output weights + 1 bias = 241.
	if len(n.w) != 241 {
		t.Errorf("params = %d, want 241", len(n.w))
	}
}

func TestPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 5, 1)
}

func TestPredictDimensionCheck(t *testing.T) {
	n := New(3, 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input dim")
		}
	}()
	n.Predict([]float64{1, 2})
}

func TestGradientMatchesNumerical(t *testing.T) {
	n := New(3, 5, 7)
	x := []float64{0.3, -0.6, 0.9}
	grad := make([]float64, len(n.w))
	base := n.forward(x, grad)
	const h = 1e-6
	for i := 0; i < len(n.w); i++ {
		old := n.w[i]
		n.w[i] = old + h
		up := n.forward(x, nil)
		n.w[i] = old
		num := (up - base) / h
		if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %v, numerical %v", i, grad[i], num)
		}
	}
}

func TestTrainLinearFunction(t *testing.T) {
	// y = 0.2 + 0.5·x0 − 0.3·x1 is easily representable.
	rng := randx.New(3)
	X := make([][]float64, 80)
	Y := make([]float64, 80)
	for i := range X {
		X[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		Y[i] = 0.2 + 0.5*X[i][0] - 0.3*X[i][1]
	}
	n := New(2, 8, 5)
	rms, err := n.Train(X, Y, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.01 {
		t.Errorf("training RMS = %v, want < 0.01", rms)
	}
	if got := n.Predict([]float64{0.1, 0.2}); math.Abs(got-(0.2+0.05-0.06)) > 0.05 {
		t.Errorf("prediction %v off target", got)
	}
}

func TestTrainNonlinearFunction(t *testing.T) {
	// A smooth 2D bump: the 20-neuron LM net must fit it well in-sample.
	rng := randx.New(11)
	X := make([][]float64, 150)
	Y := make([]float64, 150)
	for i := range X {
		X[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		Y[i] = math.Exp(-(X[i][0]*X[i][0] + X[i][1]*X[i][1]))
	}
	n := New(2, 20, 5)
	rms, err := n.Train(X, Y, TrainOptions{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.03 {
		t.Errorf("nonlinear training RMS = %v, want < 0.03", rms)
	}
}

func TestTrainRejectsBadData(t *testing.T) {
	n := New(2, 4, 1)
	if _, err := n.Train(nil, nil, TrainOptions{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []float64{1, 2}, TrainOptions{}); err == nil {
		t.Error("mismatched set accepted")
	}
	if _, err := n.Train([][]float64{{1}}, []float64{1}, TrainOptions{}); err == nil {
		t.Error("wrong dimension accepted")
	}
}

func TestNormalization(t *testing.T) {
	// With normalization, training on wildly scaled inputs still works.
	rng := randx.New(9)
	lo := []float64{1e-6, 1e3}
	hi := []float64{5e-6, 9e3}
	X := make([][]float64, 60)
	Y := make([]float64, 60)
	for i := range X {
		a := lo[0] + rng.Float64()*(hi[0]-lo[0])
		b := lo[1] + rng.Float64()*(hi[1]-lo[1])
		X[i] = []float64{a, b}
		Y[i] = (a-lo[0])/(hi[0]-lo[0]) - 0.5*(b-lo[1])/(hi[1]-lo[1])
	}
	n := New(2, 10, 5)
	n.SetNormalization(lo, hi)
	rms, err := n.Train(X, Y, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.02 {
		t.Errorf("scaled-input RMS = %v", rms)
	}
}
