// Command yieldest estimates the Monte-Carlo yield of a given design point
// on one of the registered problems and prints the per-spec nominal
// performance alongside the statistical estimate.
//
// Usage:
//
//	yieldest -problem foldedcascode [-n N] [-seed S] [-workers N] [-x "v1,v2,..."]
//	         [-sampler pmc|lhs|halton] [-tstop T] [-tstep T] [-tranmode adaptive|fixed]
//	         [-timeout DUR] [-server URL[,URL...]] [-lanes K]
//
// The flags form one service.YieldRequest, resolved by service.ResolveYield
// for the local and the served path alike: without -x, the problem's
// built-in reference design is analyzed; without -n, the problem's default
// reference sample count is used. Problems come from the scenario registry
// (-h lists them). The -tstop/-tstep/-tranmode
// flags override the transient window of a time-domain problem; on a
// problem without one they are a usage error — the command exits with code
// 2 and lists the tran-capable scenarios. With -server, the estimate is served by a mohecod
// daemon — results are bit-identical to the local path at the same
// (problem, x, n, seed, sampler, tran window), so the flag only changes
// where the simulations burn. -server accepts a comma-separated endpoint
// list ("http://a:8650,http://b:8650"); the client retries transient
// failures with backoff and fails over between endpoints, resubmitting if
// the endpoint holding the job dies (safe: the daemons' canonical-key
// caches dedupe identical requests). -timeout cancels the run (local or
// served) when it expires; the command then exits with code 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	_ "github.com/eda-go/moheco" // link the circuit registry
	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/profiling"
	"github.com/eda-go/moheco/internal/sample"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

func main() {
	var (
		probName = flag.String("problem", "foldedcascode", "registered problem name (see -h)")
		n        = flag.Int("n", 0, "Monte-Carlo samples (0 = problem default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		xFlag    = flag.String("x", "", "comma-separated design vector (default: reference design)")
		sampler  = flag.String("sampler", "pmc", "sample plan: "+strings.Join(sample.Names(), " | "))
		tStop    = flag.Float64("tstop", 0, "transient stop time override (s; time-domain problems only)")
		tStep    = flag.Float64("tstep", 0, "transient initial/fixed step override (s)")
		tranMode = flag.String("tranmode", "", "transient integrator mode: adaptive | fixed (default: problem's)")
		timeout  = flag.Duration("timeout", 0, "cancel the estimate after this duration (exit code 2)")
		server   = flag.String("server", "", "mohecod daemon URL, or a comma-separated failover list; empty = run locally")
		lanes    = flag.Int("lanes", 0, "lockstep lane count of the sparse batch solver (0 = auto by pattern size; results are identical)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: yieldest [flags]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s", scenario.Usage())
	}
	flag.Parse()
	if *lanes > 0 {
		// Engines read MOHECO_LANES at construction, which happens after
		// main starts; a pure wall-clock knob, like -workers.
		os.Setenv("MOHECO_LANES", strconv.Itoa(*lanes))
	}

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One request from the flags, resolved once through the service's
	// resolution: the local run evaluates the returned problem (transient
	// window applied) and sampler, and -server submits the same request,
	// which the daemon resolves identically.
	req := service.YieldRequest{Scenario: *probName, N: *n, Seed: seed, Sampler: *sampler}
	if *xFlag != "" {
		for _, s := range strings.Split(*xFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(err)
			}
			req.X = append(req.X, v)
		}
	}
	if *tStop != 0 || *tStep != 0 || *tranMode != "" {
		req.Tran = &service.TranSpec{TStop: *tStop, Step: *tStep, Mode: *tranMode}
	}
	spec, p, plan, err := service.ResolveYield(req)
	if errors.Is(err, service.ErrNoTranWindow) {
		// A usage error, not a runtime failure: point at the scenarios the
		// transient flags apply to and exit 2.
		fmt.Fprintf(os.Stderr, "yieldest: %v\ntran-capable scenarios: %s\n",
			err, strings.Join(scenario.TranCapableNames(), ", "))
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	perf, err := p.Evaluate(spec.X, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("problem: %s\nnominal performances:\n", p.Name())
	feasible := true
	for i, s := range p.Specs() {
		ok := s.Satisfied(perf[i])
		feasible = feasible && ok
		mark := "ok"
		if !ok {
			mark = "VIOLATED"
		}
		fmt.Printf("  %-10s %s %-12.5g got %-12.5g %-4s %s\n", s.Name, s.Sense, s.Bound, perf[i], s.Unit, mark)
	}
	if !feasible {
		fmt.Printf("total violation: %.4g\n", constraint.TotalViolation(p.Specs(), perf))
	}

	start := time.Now()
	var y float64
	where := "local"
	if *server != "" {
		where = *server
		st, cerr := service.NewClient(*server).Yield(ctx, req)
		if cerr != nil {
			fatalCtx(ctx, cerr)
		}
		y = st.Yield.Yield
		if st.Cached {
			where += " (coalesced/cached)"
		}
	} else {
		y, _, err = yieldsim.ReferenceCtx(ctx, p, spec.X, spec.N, spec.Seed, yieldsim.RefOptions{
			Workers: *workers,
			Sampler: plan,
		})
		if err != nil {
			fatalCtx(ctx, err)
		}
	}
	fmt.Printf("yield: %.3f%% (%d MC samples, plan %s, %s, %s)\n",
		100*y, spec.N, spec.Sampler, where, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yieldest:", err)
	os.Exit(1)
}

// fatalCtx reports the error and exits 2 when the run was cut short by the
// -timeout deadline, 1 otherwise.
func fatalCtx(ctx context.Context, err error) {
	fmt.Fprintln(os.Stderr, "yieldest:", err)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		os.Exit(2)
	}
	os.Exit(1)
}
