package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultBackend is the backend Options.Backend resolves to when empty: the
// paper's memetic DE+NM loop.
const DefaultBackend = "memetic"

// Optimizer is a pluggable search backend. A backend owns only its proposal
// step: the initial population it starts from and the round that proposes,
// evaluates and selects designs. The generation loop is core's (see
// SearchContext.run): the cancellation check, the stall counter, the
// per-generation record, the stop rules and the final report are the same
// for every backend, and everything budget-related — nominal screening,
// two-stage / fixed-budget yield estimation, stage-2 top-ups, simulation
// accounting — comes from the SearchContext, so every backend inherits the
// same determinism and accounting contract.
type Optimizer interface {
	// Name is the registry key (Options.Backend, `-optimizer NAME`).
	Name() string
	// Start draws and evaluates the backend's initial population and
	// returns the run's search state.
	Start(sc *SearchContext) (Search, error)
}

// Search is one run's backend state between generations.
type Search interface {
	// Incumbent is the member the run would report now.
	Incumbent() *Member
	// Round runs one generation: it proposes designs, evaluates them
	// through sc and updates the backend's population or archive. It
	// returns the members it evaluated, which the generation record
	// snapshots, and whether the incumbent improved under the backend's
	// own test; a round without improvement on a feasible incumbent
	// counts toward the stall stop.
	Round(sc *SearchContext) (evaluated []*Member, improved bool, err error)
}

var (
	optMu      sync.RWMutex
	optimizers = map[string]Optimizer{}
)

// RegisterOptimizer adds a search backend to the registry. It panics on an
// empty name or a duplicate registration — programming errors in an init
// function, not runtime conditions.
func RegisterOptimizer(o Optimizer) {
	name := o.Name()
	if name == "" {
		panic("core: optimizer registered with empty name")
	}
	optMu.Lock()
	defer optMu.Unlock()
	if _, dup := optimizers[name]; dup {
		panic(fmt.Sprintf("core: optimizer %q registered twice", name))
	}
	optimizers[name] = o
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	optMu.RLock()
	defer optMu.RUnlock()
	names := make([]string, 0, len(optimizers))
	for n := range optimizers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// optimizerFor resolves a backend by name. The error lists the registered
// names, so a tool's "unknown optimizer" message is self-serving.
func optimizerFor(name string) (Optimizer, error) {
	optMu.RLock()
	o, ok := optimizers[name]
	optMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown optimizer backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
	}
	return o, nil
}
