package circuits

import (
	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/scenario"
)

// The benchmark circuits register themselves as named scenarios, making
// them reachable from every command-line tool (`-problem NAME`) and the
// experiment harness through one registry. Adding a circuit to the suite is
// one constructor plus one Register call — no tool changes.
func init() {
	scenario.Register(scenario.Scenario{
		Name:              "foldedcascode",
		Summary:           "fully differential folded-cascode amplifier, 0.35um 3.3V (paper example 1)",
		New:               func() problem.Problem { return NewFoldedCascode() },
		DefaultMaxSims:    500,
		DefaultRefSamples: 50000,
		Netlist: func(x []float64) (*netlist.Circuit, map[string]float64, error) {
			return NewFoldedCascode().FoldedCascodeNetlist(x)
		},
	})
	scenario.Register(scenario.Scenario{
		Name:              "telescopic",
		Summary:           "two-stage telescopic cascode amplifier, 90nm 1.2V (paper example 2)",
		New:               func() problem.Problem { return NewTelescopic() },
		DefaultMaxSims:    500,
		DefaultRefSamples: 50000,
	})
	scenario.Register(scenario.Scenario{
		Name:              "commonsource",
		Summary:           "common-source stage with current-source load, 0.35um (quickstart)",
		New:               func() problem.Problem { return NewCommonSource() },
		DefaultMaxSims:    500,
		DefaultRefSamples: 50000,
		Netlist: func(x []float64) (*netlist.Circuit, map[string]float64, error) {
			return NewCommonSource().nominalNetlist(x)
		},
	})
	scenario.Register(scenario.Scenario{
		Name:              "foldedcascode-spice",
		Summary:           "folded-cascode half-circuit testbench evaluated through the MNA engine per sample (sparse solver path)",
		New:               func() problem.Problem { return NewFoldedCascodeSpice() },
		DefaultMaxSims:    200,
		DefaultRefSamples: 500,
		Netlist: func(x []float64) (*netlist.Circuit, map[string]float64, error) {
			return NewFoldedCascodeSpice().Netlist(x)
		},
	})
	scenario.Register(scenario.Scenario{
		Name:              "commonsource-tran",
		Summary:           "quickstart stage step response: AC + time-domain specs via the adaptive transient integrator",
		New:               func() problem.Problem { return NewCommonSourceTran() },
		DefaultMaxSims:    200,
		DefaultRefSamples: 1000,
		Netlist: func(x []float64) (*netlist.Circuit, map[string]float64, error) {
			return NewCommonSourceTran().Netlist(x)
		},
	})
	scenario.Register(scenario.Scenario{
		Name:              "foldedcascode-tran",
		Summary:           "folded-cascode half-circuit step response: AC + time-domain specs via the adaptive transient integrator",
		New:               func() problem.Problem { return NewFoldedCascodeTran() },
		DefaultMaxSims:    200,
		DefaultRefSamples: 300,
		Netlist: func(x []float64) (*netlist.Circuit, map[string]float64, error) {
			return NewFoldedCascodeTran().Netlist(x)
		},
	})
	scenario.Register(scenario.Scenario{
		Name:              "commonsource-spice",
		Summary:           "quickstart problem evaluated through the MNA engine per sample (batched, warm-started)",
		New:               func() problem.Problem { return NewCommonSourceSpice() },
		DefaultMaxSims:    300,
		DefaultRefSamples: 2000,
		Netlist: func(x []float64) (*netlist.Circuit, map[string]float64, error) {
			return NewCommonSourceSpice().Netlist(x)
		},
	})
}
