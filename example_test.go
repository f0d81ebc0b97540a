package moheco_test

import (
	"fmt"
	"log"

	moheco "github.com/eda-go/moheco"
)

// Optimize the yield of a common-source amplifier stage with MOHECO, then
// check the result against a large plain Monte-Carlo reference: the
// minimal end-to-end use of the library.
func ExampleOptimize() {
	// The built-in quickstart problem: a common-source stage with a
	// current-source load in the 0.35µm deck.
	p := moheco.NewCommonSourceProblem()
	fmt.Printf("problem %q: %d design variables, %d process variables\n",
		p.Name(), p.Dim(), p.VarDim())
	for _, s := range p.Specs() {
		fmt.Println("  spec:", s)
	}

	// Paper parameters, 500-sample reporting accuracy.
	opts := moheco.DefaultOptions(moheco.MethodMOHECO, 500)
	opts.Seed = 2024
	res, err := moheco.Optimize(p, opts)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Feasible {
		log.Fatal("no feasible design found")
	}
	fmt.Printf("optimized in %d generations, %d circuit simulations (%s)\n",
		res.Generations, res.TotalSims, res.StopReason)
	fmt.Printf("reported yield: %.2f%%\n", 100*res.BestYield)
	fmt.Printf("design: Ib=%.3gA W1=%.3gm L1=%.3gm W2=%.3gm\n",
		res.BestX[0], res.BestX[1], res.BestX[2], res.BestX[3])

	// Reference analysis, as the paper scores every method.
	ref, err := moheco.EstimateYield(p, res.BestX, 50000, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference yield (50k MC): %.2f%% — deviation %.2f%%\n",
		100*ref, 100*(res.BestYield-ref))
	// Output:
	// problem "common-source-0.35um": 4 design variables, 32 process variables
	//   spec: A0 >= 34 dB
	//   spec: GBW >= 2e+07 Hz
	//   spec: power <= 0.0005 W
	//   spec: satmargin >= 0 V
	// optimized in 1 generations, 18300 circuit simulations (target-yield)
	// reported yield: 100.00%
	// design: Ib=4.36e-05A W1=0.000116m L1=3.5e-07m W2=0.000131m
	// reference yield (50k MC): 100.00% — deviation 0.00%
}

// The same yield problem evaluated two ways: through the fast behavioural
// model and through the built-in MNA circuit simulator (a perturbed netlist
// plus DC and AC analyses per Monte-Carlo sample, the paper's HSPICE flow).
// The statistical machinery does not care which evaluator it drives.
func ExampleNewCommonSourceSpiceProblem() {
	fast := moheco.NewCommonSourceProblem()
	slow := moheco.NewCommonSourceSpiceProblem()
	x := fast.ReferenceDesign()

	pf, err := fast.Evaluate(x, nil)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := slow.Evaluate(x, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %14s %16s\n", "spec", "behavioural", "MNA simulator")
	for i, s := range fast.Specs() {
		fmt.Printf("%-10s %14.5g %16.5g  (%s)\n", s.Name, pf[i], ps[i], s.Unit)
	}

	// Yield estimation through both paths at the same sample budget.
	const n = 400
	yFast, err := moheco.EstimateYield(fast, x, n, 7)
	if err != nil {
		log.Fatal(err)
	}
	ySlow, err := moheco.EstimateYield(slow, x, n, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-sample Monte-Carlo yield: behavioural %.2f%%, MNA simulator %.2f%%\n",
		n, 100*yFast, 100*ySlow)
	// Output:
	// spec          behavioural    MNA simulator
	// A0                 39.046           41.662  (dB)
	// GBW            8.5338e+07        1.009e+08  (Hz)
	// power          0.00016812       0.00017197  (W)
	// satmargin           1.422          0.22209  (V)
	// 400-sample Monte-Carlo yield: behavioural 100.00%, MNA simulator 100.00%
}
