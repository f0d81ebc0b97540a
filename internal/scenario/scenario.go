// Package scenario is the registry of named yield-optimization workloads.
// A scenario bundles everything a tool needs to run a problem by name — a
// constructor, the reference design, default simulation budgets and, when
// the circuit has one, a transistor-level testbench netlist — so command-
// line tools resolve `-problem NAME` through one lookup instead of each
// maintaining its own switch, and a new circuit becomes available to every
// tool by registering itself in one file (see internal/circuits/register.go).
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/eda-go/moheco/internal/netlist"
	"github.com/eda-go/moheco/internal/problem"
)

// Scenario describes one registered workload.
type Scenario struct {
	// Name is the registry key (`-problem NAME`).
	Name string
	// Summary is the one-line description shown in usage tables.
	Summary string
	// New constructs a fresh problem instance.
	New func() problem.Problem
	// DefaultMaxSims is the stage-2 / per-candidate sample budget the
	// paper's flow uses on this workload.
	DefaultMaxSims int
	// DefaultRefSamples is the reference Monte-Carlo sample count —
	// smaller for simulator-in-the-loop workloads where each sample runs
	// the MNA engine.
	DefaultRefSamples int
	// Netlist, when non-nil, builds the scenario's transistor-level
	// testbench at design x, with an optional nodeset (initial node
	// voltages) helping the DC solve.
	Netlist func(x []float64) (*netlist.Circuit, map[string]float64, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the registry. It panics on an empty name, a
// nil constructor or a duplicate registration — all programming errors in
// an init function, not runtime conditions.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: registered with empty name")
	}
	if s.New == nil {
		panic(fmt.Sprintf("scenario %q: registered without constructor", s.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario %q: registered twice", s.Name))
	}
	registry[s.Name] = s
}

// Get resolves a scenario by name. The error lists the registered names, so
// a tool's "unknown problem" message is self-serving.
func Get(name string) (Scenario, error) {
	mu.RLock()
	s, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown problem %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// MustGet is Get for callers whose scenario names are compile-time
// constants (the experiment harness); it panics on an unknown name.
func MustGet(name string) Scenario {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the registered names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List returns the registered scenarios sorted by name.
func List() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReferenceDesign returns p's built-in reference sizing when it exposes
// one (every registered circuit does).
func ReferenceDesign(p problem.Problem) ([]float64, bool) {
	if r, ok := p.(interface{ ReferenceDesign() []float64 }); ok {
		return r.ReferenceDesign(), true
	}
	return nil, false
}

// Info is the wire-friendly description of one registered scenario — what
// the yield service reports on GET /v1/scenarios and what a remote client
// needs to build a request (dimensions, defaults, reference design).
type Info struct {
	Name              string    `json:"name"`
	Summary           string    `json:"summary"`
	DesignDim         int       `json:"design_dim"`
	VarDim            int       `json:"var_dim"`
	DefaultMaxSims    int       `json:"default_max_sims"`
	DefaultRefSamples int       `json:"default_ref_samples"`
	HasNetlist        bool      `json:"has_netlist"`
	HasTran           bool      `json:"has_tran"`
	ReferenceDesign   []float64 `json:"reference_design,omitempty"`
	// Optimizers advertises the search backends a client may name in an
	// optimize request. The scenario registry itself is backend-agnostic —
	// Describe leaves this empty and the serving layer fills it from the
	// core optimizer registry (this package must stay importable from
	// core's own tests, so it cannot depend on core).
	Optimizers []string `json:"optimizers,omitempty"`
}

// TranCapable reports whether p carries a configurable transient stage (the
// capability the service's tran-window resolution and the CLIs' transient
// flags target).
func TranCapable(p problem.Problem) bool {
	_, ok := p.(interface {
		TranWindow() (tstop, step float64, fixed bool)
	})
	return ok
}

// TranCapableNames returns the names of the registered scenarios with a
// transient stage, sorted — the list the CLIs print when transient flags
// target a scenario without one.
func TranCapableNames() []string {
	var names []string
	for _, in := range Describe() {
		if in.HasTran {
			names = append(names, in.Name)
		}
	}
	return names
}

// Describe instantiates every registered scenario and returns its Info,
// sorted by name. Constructors run on each call; the registry stays a list
// of constructors, not instances, so this is a metadata endpoint helper,
// not a hot path.
func Describe() []Info {
	scs := List()
	out := make([]Info, len(scs))
	for i, s := range scs {
		p := s.New()
		info := Info{
			Name:              s.Name,
			Summary:           s.Summary,
			DesignDim:         p.Dim(),
			VarDim:            p.VarDim(),
			DefaultMaxSims:    s.DefaultMaxSims,
			DefaultRefSamples: s.DefaultRefSamples,
			HasNetlist:        s.Netlist != nil,
			HasTran:           TranCapable(p),
		}
		if ref, ok := ReferenceDesign(p); ok {
			info.ReferenceDesign = append([]float64(nil), ref...)
		}
		out[i] = info
	}
	return out
}

// Usage renders the registry as a `-problem` usage table — the block each
// command appends to its -h output.
func Usage() string {
	var b strings.Builder
	b.WriteString("registered problems (-problem):\n")
	for _, s := range List() {
		p := s.New()
		fmt.Fprintf(&b, "  %-20s %s (%d design vars, %d variation vars)\n",
			s.Name, s.Summary, p.Dim(), p.VarDim())
	}
	return b.String()
}
