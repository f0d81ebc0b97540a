// Command mohecorun runs a yield optimization on one of the registered
// problems and prints the result, including the final design, the reported
// yield and a high-accuracy reference check.
//
// Usage:
//
//	mohecorun [-problem NAME] [-method NAME] [-optimizer NAME] [-maxsims N]
//	          [-seed S] [-maxgens N] [-ref N] [-workers N] [-trace]
//	          [-tstop T] [-tstep T] [-tranmode adaptive|fixed]
//	          [-timeout DUR] [-server URL[,URL...]]
//
// The flags form one service.OptimizeRequest, resolved by
// service.ResolveOptimize for the local and the served path alike (an
// omitted -maxsims, -maxgens or -optimizer takes the same default on
// both), and the reference check is one service.YieldRequest on both
// paths. Problems come from the scenario registry (-h lists them); methods
// are moheco, oo and fixed. -optimizer picks the search backend driving the
// estimation flow: memetic (the paper's DE+NM loop, default) or lineasybo
// (one-dimensional-subspace Bayesian optimization); -h lists the registered
// names. The -tstop/-tstep/-tranmode flags override the
// transient window of a time-domain problem (an error on problems without
// one). With -server, the optimization runs on a mohecod daemon
// (bit-identical result at the same request; -trace, -fixedsims and the
// tran flags are local-only). -server accepts a comma-separated endpoint
// list; the client retries transient failures with backoff and fails over
// between endpoints, resubmitting if the endpoint holding the job dies
// (the daemons' canonical-key caches dedupe identical requests). -timeout
// cancels the run — local or served — when it expires; the command then
// exits with code 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	moheco "github.com/eda-go/moheco"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

func main() {
	var (
		probName = flag.String("problem", "foldedcascode", "registered problem name (see -h)")
		method   = flag.String("method", "moheco", "moheco | oo | fixed")
		backend  = flag.String("optimizer", "", "search backend: "+strings.Join(moheco.Backends(), " | ")+" (default memetic)")
		maxSims  = flag.Int("maxsims", 0, "stage-2 / per-candidate sample budget (0 = problem default)")
		fixed    = flag.Int("fixedsims", 0, "fixed-budget per-candidate samples (fixed method; default maxsims)")
		seed     = flag.Uint64("seed", 1, "random seed")
		maxGens  = flag.Int("maxgens", 0, "generation cap (0 = the paper's default)")
		refN     = flag.Int("ref", -1, "reference MC samples for the final check (-1 = problem default, 0 to skip)")
		workers  = flag.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		trace    = flag.Bool("trace", false, "print per-generation progress")
		tStop    = flag.Float64("tstop", 0, "transient stop time override (s; time-domain problems, local only)")
		tStep    = flag.Float64("tstep", 0, "transient initial/fixed step override (s)")
		tranMode = flag.String("tranmode", "", "transient integrator mode: adaptive | fixed (default: problem's)")
		timeout  = flag.Duration("timeout", 0, "cancel the optimization after this duration (exit code 2)")
		server   = flag.String("server", "", "mohecod daemon URL, or a comma-separated failover list; empty = run locally")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mohecorun [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s", scenario.Usage())
	}
	flag.Parse()

	// One request from the flags, resolved once: the local run starts from
	// the returned base options, and -server submits the resolved request.
	req, opts, err := service.ResolveOptimize(service.OptimizeRequest{
		Scenario:  *probName,
		Method:    *method,
		Optimizer: *backend,
		MaxSims:   *maxSims,
		MaxGens:   *maxGens,
		Seed:      seed,
	})
	if err != nil {
		fatal(err)
	}
	p := scenario.MustGet(req.Scenario).New() // ResolveOptimize checked the name
	var tran *service.TranSpec
	if *tStop != 0 || *tStep != 0 || *tranMode != "" {
		if *server != "" {
			fatal(fmt.Errorf("-tstop/-tstep/-tranmode are local-only; served optimizations run the scenario's built-in window"))
		}
		tran = &service.TranSpec{TStop: *tStop, Step: *tStep, Mode: *tranMode}
		if _, err := service.ResolveTran(p, *probName, tran); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.Workers = *workers
	opts.Ctx = ctx
	if *fixed > 0 {
		opts.FixedSims = *fixed
	}

	fmt.Printf("problem : %s (%d design variables, %d process variables)\n",
		p.Name(), p.Dim(), p.VarDim())
	fmt.Printf("method  : %s (stage-2 budget %d, %s search)\n", opts.Method, req.MaxSims, req.Optimizer)
	start := time.Now()
	var res *moheco.Result
	if *server != "" {
		st, cerr := service.NewClient(*server).Optimize(ctx, req)
		if cerr != nil {
			fatalCtx(ctx, cerr)
		}
		o := st.Optimize
		res = &moheco.Result{
			Problem:     p.Name(),
			Method:      opts.Method,
			Backend:     o.Optimizer,
			BestX:       o.BestX,
			BestYield:   o.BestYield,
			BestSamples: o.BestSamples,
			Feasible:    o.Feasible,
			TotalSims:   o.TotalSims,
			Generations: o.Generations,
			StopReason:  o.StopReason,
		}
		if st.Cached {
			res.StopReason += " (coalesced/cached result)"
		}
	} else {
		var err error
		res, err = moheco.Optimize(p, opts)
		if err != nil {
			fatalCtx(ctx, err)
		}
	}
	if *trace {
		for _, r := range res.History {
			fmt.Printf("  gen %3d: feasible=%v yield=%.4f violation=%.4g sims=%d\n",
				r.Gen, r.BestFeasible, r.BestYield, r.BestViolation, r.CumSims)
		}
	}
	fmt.Printf("stopped : %s after %d generations, %s\n",
		res.StopReason, res.Generations, time.Since(start).Round(time.Millisecond))
	fmt.Printf("sims    : %d circuit simulations\n", res.TotalSims)
	if !res.Feasible {
		fmt.Println("result  : no feasible design found")
		os.Exit(2)
	}
	fmt.Printf("yield   : %.2f%% (reported, %d samples)\n", 100*res.BestYield, res.BestSamples)
	fmt.Print("design  :")
	for _, v := range res.BestX {
		fmt.Printf(" %.5g", v)
	}
	fmt.Println()
	perf, err := p.Evaluate(res.BestX, nil)
	if err == nil {
		fmt.Println("nominal performances:")
		for i, s := range p.Specs() {
			fmt.Printf("  %-10s %s %-12.5g got %.5g %s\n", s.Name, s.Sense, s.Bound, perf[i], s.Unit)
		}
	}
	if *refN != 0 {
		// The reference check is one request for both paths: under -server
		// it runs on the daemon too (hitting its result cache), so "where
		// the simulations burn" stays the flag's only effect, and it
		// honours -timeout either way. Locally it carries the -tstop/
		// -tstep/-tranmode window the optimization ran on.
		refReq := service.YieldRequest{Scenario: req.Scenario, X: res.BestX, N: *refN, Seed: service.Seed(*req.Seed + 777), Tran: tran}
		var ref float64
		var refSamples int
		if *server != "" {
			st, cerr := service.NewClient(*server).Yield(ctx, refReq)
			if cerr != nil {
				fatalCtx(ctx, cerr)
			}
			ref, refSamples = st.Yield.Yield, st.Yield.N
		} else {
			spec, rp, smp, rerr := service.ResolveYield(refReq)
			if rerr != nil {
				fatal(rerr)
			}
			ref, _, rerr = yieldsim.ReferenceCtx(ctx, rp, spec.X, spec.N, spec.Seed,
				yieldsim.RefOptions{Workers: *workers, Sampler: smp})
			if rerr != nil {
				fatalCtx(ctx, rerr)
			}
			refSamples = spec.N
		}
		fmt.Printf("reference yield (%d MC samples): %.2f%% (deviation %.2f%%)\n",
			refSamples, 100*ref, 100*(res.BestYield-ref))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mohecorun:", err)
	os.Exit(1)
}

// fatalCtx reports the error and exits 2 when the run was cut short by the
// -timeout deadline, 1 otherwise.
func fatalCtx(ctx context.Context, err error) {
	fmt.Fprintln(os.Stderr, "mohecorun:", err)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		os.Exit(2)
	}
	os.Exit(1)
}
