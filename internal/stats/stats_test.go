package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Var()-4) > 1e-12 {
		t.Errorf("var = %v, want 4", w.Var())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

// Property: Welford agrees with the two-pass formula on random data.
func TestWelfordProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			w.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.Best != 1 || s.Worst != 5 || s.N != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Average-2.8) > 1e-12 {
		t.Errorf("average = %v, want 2.8", s.Average)
	}
	if s2 := Summarize(nil); s2.N != 0 {
		t.Errorf("empty summary = %+v", s2)
	}
}

func TestBernoulliVar(t *testing.T) {
	// Never zero, even for degenerate estimates.
	if BernoulliVar(0, 100) <= 0 {
		t.Error("all-fail variance should stay positive")
	}
	if BernoulliVar(100, 100) <= 0 {
		t.Error("all-pass variance should stay positive")
	}
	// Near 0.25 for p≈0.5.
	if v := BernoulliVar(50, 100); math.Abs(v-0.25) > 0.01 {
		t.Errorf("mid variance = %v", v)
	}
	// No-data prior.
	if BernoulliVar(0, 0) != 0.25 {
		t.Errorf("prior variance = %v, want 0.25", BernoulliVar(0, 0))
	}
}

// Property: BernoulliVar is bounded in (0, 0.25] and symmetric in k vs n-k.
func TestBernoulliVarProperty(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		v := BernoulliVar(k, n)
		sym := BernoulliVar(n-k, n)
		return v > 0 && v <= 0.25 && math.Abs(v-sym) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWilson(t *testing.T) {
	// Known value: 8/10 successes → approx [0.490, 0.943].
	lo, hi := Wilson(8, 10)
	if math.Abs(lo-0.490) > 0.01 || math.Abs(hi-0.943) > 0.01 {
		t.Errorf("Wilson(8,10) = [%v, %v]", lo, hi)
	}
	// Degenerate cases stay in [0, 1].
	lo, hi = Wilson(0, 50)
	if lo != 0 || hi <= 0 || hi > 0.2 {
		t.Errorf("Wilson(0,50) = [%v, %v]", lo, hi)
	}
	lo, hi = Wilson(50, 50)
	if hi != 1 || lo < 0.8 {
		t.Errorf("Wilson(50,50) = [%v, %v]", lo, hi)
	}
	if lo, hi = Wilson(0, 0); lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%v, %v]", lo, hi)
	}
}

// Property: the interval always contains the point estimate.
func TestWilsonContainsEstimate(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		k := int(kRaw) % (n + 1)
		lo, hi := Wilson(k, n)
		p := float64(k) / float64(n)
		return lo <= p+1e-12 && p <= hi+1e-12 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
