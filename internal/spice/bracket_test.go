package spice

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"github.com/eda-go/moheco/internal/measure"
)

// bodeOf is what a testbench reads from a probed record: the DC gain, the
// unity crossing (or its error) and the phase margin there, as bits.
func bodeOf(freqs []float64, r measure.Points) string {
	if len(r.H) == 0 {
		return "empty"
	}
	a0 := measure.DCGainDBOf(r.H)
	fu, err := measure.UnityCrossingOf(freqs, r)
	if err != nil {
		return fmt.Sprintf("%x %v", math.Float64bits(a0), err)
	}
	pm := measure.PhaseMarginOf(freqs, r, fu)
	return fmt.Sprintf("%x %x %x", math.Float64bits(a0), math.Float64bits(fu), math.Float64bits(pm))
}

// walkRecord walks a constructed response h as the bracketed sweep does,
// point i's solve failing where fails(i) holds. It returns the record (nil
// when the walk failed), the failed point (-1 if none) and the points it
// solved, failed ones included. The record storage starts out holding h,
// as reused storage may hold an earlier sweep of the same sample: the walk
// must read only the points it solved.
func walkRecord(t *testing.T, h []complex128, stride int, fails func(int) bool) (r measure.Points, failAt int, solved []int) {
	t.Helper()
	rec := slices.Clone(h)
	var w walk
	w.start(rec, make([]bool, len(h)), stride, true)
	for {
		i, ok := w.next()
		if !ok {
			break
		}
		if w.seen[i] || slices.Contains(solved, i) {
			t.Fatalf("the walk solved point %d twice", i)
		}
		solved = append(solved, i)
		if fails(i) {
			w.failAt = i
			continue
		}
		rec[i], w.seen[i] = h[i], true
	}
	if w.end < 0 {
		return measure.Points{}, w.failAt, solved
	}
	for i := 0; i < w.end; i++ {
		if w.seen[i] {
			r.At, r.H = append(r.At, i), append(r.H, rec[i])
		}
	}
	return r, -1, solved
}

// denseRecord is the dense stop-at-unity sweep of h: the prefix up to the
// first fall through unity, or the first failing point.
func denseRecord(h []complex128, fails func(int) bool) (prefix []complex128, failAt int) {
	prevAtLeast := false
	for i := range h {
		if fails(i) {
			return nil, i
		}
		falls, atLeast := measure.FallsThroughUnity(prevAtLeast, h[i])
		if falls {
			return h[:i+1], -1
		}
		prevAtLeast = atLeast
	}
	return h, -1
}

// checkWalk requires the bracketed walk of h to read what the dense prefix
// reads: the same failing point, or the same measures bit for bit. It
// returns the points the walk solved.
func checkWalk(t *testing.T, what string, freqs []float64, h []complex128, fails func(int) bool) []int {
	t.Helper()
	if fails == nil {
		fails = func(int) bool { return false }
	}
	r, failAt, solved := walkRecord(t, h, coarseStride(freqs), fails)
	prefix, wantFail := denseRecord(h, fails)
	if failAt != wantFail {
		t.Fatalf("%s: the walk failed at point %d, the dense sweep at %d (solved %v)", what, failAt, wantFail, solved)
	}
	if failAt >= 0 {
		return solved
	}
	if got, want := bodeOf(freqs, r), bodeOf(freqs, measure.Points{H: prefix}); got != want {
		t.Fatalf("%s: the walk's record %v reads %s, the %d-point dense prefix %s", what, r.At, got, len(prefix), want)
	}
	return solved
}

// response builds a sweep from per-point magnitudes and phases (degrees).
func response(n int, mag, deg func(i int) float64) []complex128 {
	h := make([]complex128, n)
	for i := range h {
		h[i] = cmplx.Rect(mag(i), deg(i)*math.Pi/180)
	}
	return h
}

// On random responses of one to four poles, with and without a zero,
// inverting or not, the walk reads the dense prefix's measures bit for bit,
// and on the ones that cross it solves under half the dense points.
func TestWalkMatchesDenseOnRandomResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	freqs := LogSpace(1e3, 5e9, 8)
	crossed, walked, dense := 0, 0, 0
	for trial := 0; trial < 5000; trial++ {
		a := math.Pow(10, rng.Float64()*5-1)
		if rng.Intn(2) == 0 {
			a = -a
		}
		poles := make([]float64, 1+rng.Intn(4))
		for i := range poles {
			poles[i] = math.Pow(10, 2+7*rng.Float64())
		}
		zero := math.Pow(10, 3+7*rng.Float64())
		withZero := rng.Intn(3) == 0
		h := make([]complex128, len(freqs))
		for i, f := range freqs {
			h[i] = complex(a, 0)
			for _, p := range poles {
				h[i] /= 1 + complex(0, f/p)
			}
			if withZero {
				h[i] *= 1 - complex(0, f/zero)
			}
		}
		solved := checkWalk(t, fmt.Sprintf("trial %d", trial), freqs, h, nil)
		if prefix, _ := denseRecord(h, func(int) bool { return false }); len(prefix) < len(h) {
			crossed++
			walked += len(solved)
			dense += len(prefix)
		}
	}
	t.Logf("%d of 5000 responses cross: the walk solved %d points, the dense prefixes hold %d", crossed, walked, dense)
	if crossed == 0 || 2*walked >= dense {
		t.Fatalf("the walk solved %d points on %d crossing responses, the dense prefixes hold %d: want under half", walked, crossed, dense)
	}
}

// Each sign that the coarse points cannot vouch for the points between
// them sends the walk through those points one by one, and the record then
// reads the dense prefix's measures bit for bit: a magnitude rising between
// coarse points over a dip through unity, a phase turning over 90° (here
// 200°, which a coarse step would unwrap onto the other branch), a first
// point below unity, a solve failing from some point on, and |h| = 1 at
// the point before the fall, where the phase margin reads one point
// further back. A response that never crosses reads the coarse points only.
func TestWalkFallbackSigns(t *testing.T) {
	freqs := LogSpace(1e3, 1e9, 8)
	n := len(freqs)
	if coarseStride(freqs) != 8 || n != 49 {
		t.Fatalf("grid of %d points, coarse stride %d: want 49 and 8", n, coarseStride(freqs))
	}
	// decay falls through unity between points at-1 and at.
	decay := func(at float64) func(int) float64 {
		return func(i int) float64 { return math.Pow(10, (at-0.5-float64(i))/8) }
	}
	lag := func(i int) float64 { return -10 - float64(i) }

	// A dip through unity at points 11–13 between coarse points 8 and 16,
	// the magnitude rising from 8 to 16.
	dip := func(i int) float64 {
		switch {
		case i <= 10:
			return 2
		case i <= 13:
			return 0.5
		}
		return 3.5 * math.Pow(10, -float64(max(i-16, 0))/8)
	}
	solved := checkWalk(t, "rising magnitude", freqs, response(n, dip, lag), nil)
	if !slices.Contains(solved, 11) {
		t.Errorf("rising magnitude: the walk solved %v, not the dip's fall at 11", solved)
	}

	// The phase turns 200° between coarse points 16 and 24, before the
	// crossing at 37.
	turn := func(i int) float64 { return -10 - 25*float64(min(max(i-16, 0), 8)) }
	solved = checkWalk(t, "phase turn", freqs, response(n, decay(37), turn), nil)
	if !slices.Contains(solved, 20) {
		t.Errorf("phase turn: the walk solved %v, not the turn's points", solved)
	}

	// The first point below unity: the response rises through unity
	// before it falls.
	rise := func(i int) float64 {
		if i < 4 {
			return 0.5 * math.Pow(2, float64(i))
		}
		return 4 * decay(29)(i) / decay(29)(4)
	}
	solved = checkWalk(t, "first point below unity", freqs, response(n, rise, lag), nil)
	if !slices.Contains(solved, 1) {
		t.Errorf("first point below unity: the walk solved %v, not point 1", solved)
	}

	// Never crossing: the coarse points only.
	solved = checkWalk(t, "never crossing", freqs, response(n, decay(80), lag), nil)
	if want := []int{0, 8, 16, 24, 32, 40, 48}; !slices.Equal(solved, want) {
		t.Errorf("never crossing: the walk solved %v, want the coarse points %v", solved, want)
	}

	// Solves failing from point 21 on: before the crossing the lane fails
	// there; after it, the crossing at 19 ends the sweep first.
	from21 := func(i int) bool { return i >= 21 }
	checkWalk(t, "failing before the crossing", freqs, response(n, decay(30), lag), from21)
	checkWalk(t, "failing after the crossing", freqs, response(n, decay(19), lag), from21)
	checkWalk(t, "failing at the first point", freqs, response(n, decay(30), lag), func(int) bool { return true })
	checkWalk(t, "empty sweep", nil, nil, nil)

	// |h| exactly 1 at the point before the fall, at every fall position
	// and on the four unit phasors; the walk reads point i-2 too.
	readsBack := 0
	for fall := 1; fall < n; fall++ {
		for _, unit := range []complex128{1, -1, complex(0, 1), complex(0, -1)} {
			h := response(n, decay(float64(fall)), lag)
			h[fall-1] = unit
			what := fmt.Sprintf("|h| = 1 before the fall at %d (%v)", fall, unit)
			solved := checkWalk(t, what, freqs, h, nil)
			if fall >= 2 && !slices.Contains(solved, fall-2) {
				t.Fatalf("%s: the walk solved %v, not point %d", what, solved, fall-2)
			}
			if fu, err := measure.UnityCrossingOf(freqs, measure.Points{H: h[:fall+1]}); err == nil && fu <= freqs[fall-1] {
				readsBack++
			}
		}
	}
	if readsBack == 0 {
		t.Fatal("no crossing rounded to its point before the fall: the i-2 edge is never exercised")
	}
}

// probeLanesBracket adds to probeLanes a lane whose gain never falls
// through unity in range, 1000 times the first lane's crossing.
var probeLanesBracket = append(slices.Clone(probeLanes), [2]float64{100, 1e4})

// The lockstep and one-lane bracketed sweeps read, on every probe-bench
// lane, the measures and error text of the dense stop-at-unity prefix:
// crossings at two points, a lane below unity from the first point, a
// never-crossing lane, a nil lane and a lane failing at the first point;
// and on a bench whose floating 1e300 F capacitor overflows above 28.6
// MHz, every lane failing there that has not crossed before it.
func TestACBracketMatchesDenseProbe(t *testing.T) {
	for _, overflow := range []bool{false, true} {
		b := newProbeBench(3)
		if overflow {
			b.ckt.AddC("CF", "t1", "t2", 1e300)
		}
		k := len(probeLanesBracket)
		set := b.setLanes(probeLanesBracket...)
		eng, err := New(b.ckt, Options{Lanes: k})
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := New(b.ckt, Options{Lanes: 1})
		if err != nil {
			t.Fatal(err)
		}
		freqs := LogSpace(1e3, 1e9, 8)
		ops := probeOps(t, eng, k)
		p := Probe{Node: b.out, StopAtUnity: true}
		hs, denseErrs := eng.ACBatchProbe(ops, freqs, p, set)
		hs, denseErrs = slices.Clone(hs), slices.Clone(denseErrs)
		for l := range hs {
			hs[l] = slices.Clone(hs[l])
		}
		rs, errs := eng.ACBatchBracket(ops, freqs, b.out, set)
		failed := 0
		for l := 0; l < k; l++ {
			if ops[l] == nil {
				if len(rs[l].H) != 0 || errs[l] != nil {
					t.Fatalf("nil lane %d produced output: %v %v", l, rs[l], errs[l])
				}
				continue
			}
			set(l)
			one, oneErrs := scalar.ACBatchBracket(ops[l:l+1], freqs, b.out, noLane)
			for _, got := range []struct {
				r   measure.Points
				err error
			}{{rs[l], errs[l]}, {one[0], oneErrs[0]}} {
				if fmt.Sprint(got.err) != fmt.Sprint(denseErrs[l]) {
					t.Fatalf("overflow=%v lane %d: bracketed error %v, dense prefix %v", overflow, l, got.err, denseErrs[l])
				}
				if got.err == nil && bodeOf(freqs, got.r) != bodeOf(freqs, measure.Points{H: hs[l]}) {
					t.Fatalf("overflow=%v lane %d: bracketed record %v reads %s, dense prefix %s",
						overflow, l, got.r.At, bodeOf(freqs, got.r), bodeOf(freqs, measure.Points{H: hs[l]}))
				}
			}
			if errs[l] != nil {
				failed++
			}
		}
		if want := map[bool]int{false: 1, true: 3}[overflow]; failed != want {
			t.Fatalf("overflow=%v: %d lanes failed, want %d", overflow, failed, want)
		}
	}
}

// The copy+patch assembly equals the full loop complex(g, ω·c) bit for
// bit, each lane at its own ω: on C lanes that are +0, -0, NaN, ±Inf or
// finite, entries whose lanes mix them, ω of zero, huge or mixed across
// lanes, and a negative or non-finite ω on one lane (the long way).
func TestAssembleMatchesFullLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	special := []float64{0, 0, 0, 0, negZero, nan, inf, -inf, 1e-12, -3e-15}
	for _, k := range []int{1, 3, 8} {
		for trial := 0; trial < 200; trial++ {
			slots := (1 + rng.Intn(40)) * k
			ac := &acScratch{
				gv: make([]float64, slots), cv: make([]float64, slots),
				y0: make([]complex128, slots), yv: make([]complex128, slots),
				omega: make([]float64, k),
			}
			for i := range ac.gv {
				ac.gv[i] = rng.NormFloat64()
				if rng.Intn(10) == 0 {
					ac.gv[i] = special[rng.Intn(len(special))]
				}
				ac.cv[i] = special[rng.Intn(len(special))]
			}
			ac.patchList()
			for step := 0; step < 4; step++ {
				for l := range ac.omega {
					ac.omega[l] = 2 * math.Pi * math.Pow(10, 3+6*rng.Float64())
					switch rng.Intn(12) {
					case 0:
						ac.omega[l] = 0
					case 1:
						ac.omega[l] = math.MaxFloat64
					case 2:
						if trial%4 == 0 {
							ac.omega[l] = []float64{-1, inf, nan}[rng.Intn(3)]
						}
					}
				}
				ac.assemble()
				for i, v := range ac.yv {
					want := complex(ac.gv[i], ac.omega[i%k]*ac.cv[i])
					if math.Float64bits(real(v)) != math.Float64bits(real(want)) || math.Float64bits(imag(v)) != math.Float64bits(imag(want)) {
						t.Fatalf("k=%d trial %d slot %d (g %v, c %v, ω %v): assembled %v, full loop %v",
							k, trial, i, ac.gv[i], ac.cv[i], ac.omega[i%k], v, want)
					}
				}
			}
		}
	}
}
