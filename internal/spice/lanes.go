package spice

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// maxLanes caps the lockstep lane count: beyond this the SoA working set of
// one batch stops fitting in L1/L2 for realistic fill patterns and the
// traversal amortization flattens out.
const maxLanes = 16

// resolveLanes turns the Options.Lanes request into the engine's lockstep
// lane count: an explicit request wins, then the MOHECO_LANES environment
// override, then an automatic choice by pattern size. The result is a pure
// function of the request, the environment and the MNA system size — never
// of worker schedule or batch length — which is what keeps lane grouping,
// and with it every batch result, bit-stable across worker counts.
func resolveLanes(req, size int) int {
	k := req
	if k == 0 {
		k = envLanes()
	}
	if k == 0 {
		// Auto by pattern size: small systems amortize traversal cost best
		// and their SoA batch stays cache-resident, so they take the widest
		// batch; larger patterns back off to bound the working set.
		switch {
		case size <= 32:
			k = 8
		case size <= 128:
			k = 4
		default:
			k = 2
		}
	}
	if k < 1 {
		k = 1
	}
	if k > maxLanes {
		k = maxLanes
	}
	return k
}

// envLanes reads the MOHECO_LANES override. It is read per engine
// construction, not once at init: the CLIs expose a -lanes flag by setting
// the variable from main, which runs after package init.
func envLanes() int {
	s := strings.TrimSpace(os.Getenv("MOHECO_LANES"))
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "spice: invalid MOHECO_LANES=%q (want a positive integer) - ignoring\n", s)
		return 0
	}
	return n
}

// Lanes returns the engine's resolved lockstep lane count: how many
// Monte-Carlo samples the batch DC/AC paths factor and solve per traversal.
// 1 means one-lane groups (pinned via Options.Lanes or MOHECO_LANES).
func (e *Engine) Lanes() int { return e.lanes }
