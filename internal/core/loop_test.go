package core

import (
	"context"
	"errors"
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// scriptedRound is one round of a scriptedSearch: the incumbent's fitness
// after the round, whether the round reports an improvement, and the
// simulations it charges.
type scriptedRound struct {
	fit      constraint.Fitness
	improved bool
	sims     int64
}

// scriptedSearch is a backend whose rounds follow a script; the last round
// repeats once the script runs out. It evaluates nothing, so the driver is
// tested on its own bookkeeping.
type scriptedSearch struct {
	inc     *Member
	rounds  []scriptedRound
	ran     int
	onRound func(ran int) // called after each round, when set
}

func (s *scriptedSearch) Incumbent() *Member { return s.inc }

func (s *scriptedSearch) Round(sc *SearchContext) ([]*Member, bool, error) {
	r := s.rounds[min(s.ran, len(s.rounds)-1)]
	s.ran++
	sc.counter.Add(yieldsim.Stage1, r.sims)
	s.inc.Fit = r.fit
	if s.onRound != nil {
		s.onRound(s.ran)
	}
	return []*Member{s.inc}, r.improved, nil
}

var (
	infeasible = constraint.Fitness{Violation: 1}
	feasibleAt = func(y float64) constraint.Fitness { return constraint.Fitness{Feasible: true, Yield: y} }
)

// driverOptions are small run options for the scripted driver tests: a
// cheap final top-up on the coin problem, generous limits that each test
// lowers.
func driverOptions() Options {
	o := DefaultOptions(MethodMOHECO, 20)
	o.Workers = 1
	o.MaxGenerations = 50
	o.StallStop = 50
	o.TargetYield = 1.1
	return o.withDefaults()
}

// runScripted drives a scripted search through the generation loop on the
// coin problem, whose final top-up costs MaxSims simulations and no
// simulator.
func runScripted(o Options, rounds ...scriptedRound) (*Result, *scriptedSearch, error) {
	s := &scriptedSearch{inc: &Member{X: []float64{0.5}, Fit: infeasible}, rounds: rounds}
	res, err := newSearchContext(coinProblem{p: 0.5}, o, "scripted").run(s)
	return res, s, err
}

func TestRunStopReasons(t *testing.T) {
	improving := func(y float64) scriptedRound { return scriptedRound{fit: feasibleAt(y), improved: true, sims: 4} }
	flat := func(y float64) scriptedRound { return scriptedRound{fit: feasibleAt(y), sims: 4} }
	cases := []struct {
		name   string
		edit   func(*Options)
		rounds []scriptedRound
		gens   int
	}{
		{"target-yield", func(o *Options) { o.TargetYield = 0.9 },
			[]scriptedRound{{fit: infeasible, sims: 4}, improving(0.5), improving(0.95)}, 3},
		// The target is checked before the stall and the budget.
		{"target-yield", func(o *Options) { o.TargetYield = 0.9; o.StallStop = 1; o.SimBudget = 4 },
			[]scriptedRound{flat(0.95)}, 1},
		{"stalled", func(o *Options) { o.StallStop = 3 },
			[]scriptedRound{improving(0.5), flat(0.5)}, 4},
		// The stall is checked before the budget.
		{"stalled", func(o *Options) { o.StallStop = 2; o.SimBudget = 8 },
			[]scriptedRound{flat(0.5)}, 2},
		{"budget", func(o *Options) { o.SimBudget = 10 },
			[]scriptedRound{improving(0.5)}, 3},
		{"max-generations", func(o *Options) { o.MaxGenerations = 5 },
			[]scriptedRound{improving(0.5)}, 5},
	}
	for _, c := range cases {
		o := driverOptions()
		c.edit(&o)
		res, s, err := runScripted(o, c.rounds...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.StopReason != c.name || res.Generations != c.gens || s.ran != c.gens || len(res.History) != c.gens {
			t.Fatalf("%s: stop %q after %d generations (%d rounds, %d records), want %q after %d",
				c.name, res.StopReason, res.Generations, s.ran, len(res.History), c.name, c.gens)
		}
		for i, r := range res.History {
			if r.Gen != i+1 || r.CumSims != int64(4*(i+1)) {
				t.Fatalf("%s: record %d has Gen %d, CumSims %d; want %d, %d", c.name, i, r.Gen, r.CumSims, i+1, 4*(i+1))
			}
		}
		if last := res.History[c.gens-1]; last.BestFeasible != s.inc.Fit.Feasible || last.NumFeasible != 1 {
			t.Fatalf("%s: last record %+v does not describe the incumbent %+v", c.name, last, s.inc.Fit)
		}
	}
}

// TestRunStallCountsOnlyFeasibleIncumbents: rounds on an infeasible
// incumbent never count toward the stall stop, so the stall count starts
// at the first feasible round.
func TestRunStallCountsOnlyFeasibleIncumbents(t *testing.T) {
	o := driverOptions()
	o.StallStop = 3
	rounds := make([]scriptedRound, 6, 7)
	for i := range rounds {
		rounds[i] = scriptedRound{fit: infeasible}
	}
	rounds = append(rounds, scriptedRound{fit: feasibleAt(0.5)})
	res, _, err := runScripted(o, rounds...)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "stalled" || res.Generations != 9 {
		t.Fatalf("stop %q after %d generations, want stalled after 9 (6 infeasible + 3 stalled)", res.StopReason, res.Generations)
	}

	o.MaxGenerations = 10
	res, _, err = runScripted(o, scriptedRound{fit: infeasible})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "max-generations" || res.Generations != 10 || res.Feasible {
		t.Fatalf("an always-infeasible run stopped %q after %d generations (feasible %v), want max-generations after 10",
			res.StopReason, res.Generations, res.Feasible)
	}
}

// TestRunCancelAtGenerationBoundary: a cancellation during a round lets
// that round finish and record, then ends the run before the next round.
func TestRunCancelAtGenerationBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := driverOptions()
	o.Ctx = ctx
	records := 0
	o.OnGeneration = func(GenRecord) { records++ }
	s := &scriptedSearch{
		inc:    &Member{X: []float64{0.5}, Fit: infeasible},
		rounds: []scriptedRound{{fit: feasibleAt(0.5), improved: true, sims: 1}},
		onRound: func(ran int) {
			if ran == 3 {
				cancel()
			}
		},
	}
	sc := newSearchContext(coinProblem{p: 0.5}, o, "scripted")
	res, err := sc.run(s)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled run returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if s.ran != 3 || records != 3 || sc.counter.Total() != 3 {
		t.Fatalf("after a cancel in round 3: %d rounds, %d records, %d sims; want 3 each (no final top-up)", s.ran, records, sc.counter.Total())
	}
}

// TestRunTrustsTheRoundsImprovement covers a memetic round whose stage-2
// promotion lowered the incumbent's yield and whose Nelder–Mead refinement
// then improved on the promoted incumbent without reaching the yield the
// round started from. The round reports an improvement and the stall count
// resets: the driver takes the backend's test, and does not compare the
// incumbents before and after the round, which would count that round as
// stalled and stop at generation 3.
func TestRunTrustsTheRoundsImprovement(t *testing.T) {
	o := driverOptions()
	o.StallStop = 2
	res, _, err := runScripted(o,
		scriptedRound{fit: feasibleAt(0.8), improved: true},
		scriptedRound{fit: feasibleAt(0.8)},
		// Promotion 0.8 → 0.6, refinement 0.6 → 0.7.
		scriptedRound{fit: feasibleAt(0.7), improved: true},
		scriptedRound{fit: feasibleAt(0.7)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "stalled" || res.Generations != 5 {
		t.Fatalf("stop %q after %d generations, want stalled after 5", res.StopReason, res.Generations)
	}
	if y := res.History[2].BestYield; y != 0.7 {
		t.Fatalf("generation 3 recorded incumbent yield %v, want 0.7", y)
	}
}
