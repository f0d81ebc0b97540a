package spice

import (
	"github.com/eda-go/moheco/internal/linalg/sparse"
	"github.com/eda-go/moheco/internal/mos"
	"github.com/eda-go/moheco/internal/netlist"
)

// This file implements stamp-pointer caching: the classic SPICE technique of
// resolving, once per engine, the exact value-array position every device
// stamp writes to. Per-iteration assembly then degenerates to indexed
// adds with no row mapping, no bounds branching and no (row, col) → offset
// arithmetic, and — crucially — the same plan drives the dense matrix (index
// = r·n + c) and the sparse matrix (index = position in the CSR value
// array), so the two solver paths share one implementation of the device
// physics and cannot drift apart.
//
// Ground rows and columns are mapped to a write-off ("trash") slot appended
// to every value array and to the residual vector, keeping the stamping
// loops branch-free: a stamp into ground is executed and discarded.

// Terminal indices of the MOSFET 4×4 stamp block.
const (
	tD = iota
	tG
	tS
	tB
)

type resStamp struct {
	dev            *netlist.Resistor
	n1, n2         int // node ids (voltage reads)
	ii, jj, ij, ji int // value indices (n1,n1), (n2,n2), (n1,n2), (n2,n1)
	f1, f2         int // residual rows (trash-mapped)
}

type capStamp struct {
	dev            *netlist.Capacitor
	n1, n2         int
	ii, jj, ij, ji int
	f1, f2         int
}

type isrcStamp struct {
	dev    *netlist.ISource
	f1, f2 int // residual rows of NP, NN
}

type vccsStamp struct {
	dev                *netlist.VCCS
	pcp, pcn, ncp, ncn int // (NP,NCP), (NP,NCN), (NN,NCP), (NN,NCN)
	f1, f2             int
}

type vsrcStamp struct {
	dev                *netlist.VSource
	bi                 int // solution index of the branch current (also the branch row)
	npb, nnb, bnp, bnn int // (NP,bi), (NN,bi), (bi,NP), (bi,NN)
	fp, fn             int
}

type vcvsStamp struct {
	dev                *netlist.VCVS
	bi                 int
	npb, nnb, bnp, bnn int
	bcp, bcn           int // (bi,NCP), (bi,NCN)
	fp, fn             int
}

type mosStamp struct {
	dev *netlist.Mosfet
	fr  [4]int    // residual rows per terminal (d,g,s,b), trash-mapped
	blk [4][4]int // value indices of the full terminal × terminal block
}

// stampPlan is the per-engine cache of direct stamp indices. One plan serves
// the DC Jacobian, the AC G/C split and the transient companion stamps —
// they share one structural pattern by construction.
type stampPlan struct {
	size int
	gmin []int // diagonal value indices (i,i) for the node rows
	res  []resStamp
	caps []capStamp
	isrc []isrcStamp
	vccs []vccsStamp
	vsrc []vsrcStamp
	vcvs []vcvsStamp
	mos  []mosStamp
}

// forEachEntry enumerates the union structural pattern of every analysis —
// the DC Jacobian, the AC G and C parts and the transient companion models —
// in original MNA coordinates. add must tolerate negative (ground) indices.
func (e *Engine) forEachEntry(add func(r, c int)) {
	for i := 0; i < e.nNodes; i++ {
		add(i, i) // gmin keeps every node diagonal structurally present
	}
	branchIdx := 0
	for _, d := range e.ckt.Devices {
		switch t := d.(type) {
		case *netlist.Resistor:
			r1, r2 := row(t.N1), row(t.N2)
			add(r1, r1)
			add(r2, r2)
			add(r1, r2)
			add(r2, r1)
		case *netlist.Capacitor:
			r1, r2 := row(t.N1), row(t.N2)
			add(r1, r1)
			add(r2, r2)
			add(r1, r2)
			add(r2, r1)
		case *netlist.VCCS:
			add(row(t.NP), row(t.NCP))
			add(row(t.NP), row(t.NCN))
			add(row(t.NN), row(t.NCP))
			add(row(t.NN), row(t.NCN))
		case *netlist.VSource:
			bi := e.nNodes + branchIdx
			add(row(t.NP), bi)
			add(row(t.NN), bi)
			add(bi, row(t.NP))
			add(bi, row(t.NN))
			branchIdx++
		case *netlist.VCVS:
			bi := e.nNodes + branchIdx
			add(row(t.NP), bi)
			add(row(t.NN), bi)
			add(bi, row(t.NP))
			add(bi, row(t.NN))
			add(bi, row(t.NCP))
			add(bi, row(t.NCN))
			branchIdx++
		case *netlist.Mosfet:
			// The full 4×4 terminal block: the DC Jacobian touches the
			// drain/source rows (either orientation of the per-iteration
			// source/drain swap), the AC linearization adds gm/gmb/gds and
			// the four capacitances — together they reach every pairing.
			n := [4]int{row(t.D), row(t.G), row(t.S), row(t.B)}
			for _, r := range n {
				for _, c := range n {
					add(r, c)
				}
			}
		}
	}
}

// analyzePattern runs the one-time symbolic phase for the sparse path.
func (e *Engine) analyzePattern() (*sparse.Symbolic, error) {
	b := sparse.NewBuilder(e.size)
	e.forEachEntry(b.Add)
	return b.Analyze()
}

// buildPlan resolves every device stamp through index, which maps an
// original (row, col) coordinate to a direct value-array position and
// negative coordinates to the write-off slot.
func (e *Engine) buildPlan(index func(r, c int) int) *stampPlan {
	p := &stampPlan{size: e.size}
	// Ground residual rows write to the extra trailing row of F/rhs.
	frow := func(node int) int {
		if r := row(node); r >= 0 {
			return r
		}
		return e.size
	}
	p.gmin = make([]int, e.nNodes)
	for i := 0; i < e.nNodes; i++ {
		p.gmin[i] = index(i, i)
	}
	branchIdx := 0
	for _, d := range e.ckt.Devices {
		switch t := d.(type) {
		case *netlist.Resistor:
			r1, r2 := row(t.N1), row(t.N2)
			p.res = append(p.res, resStamp{
				dev: t, n1: t.N1, n2: t.N2,
				ii: index(r1, r1), jj: index(r2, r2), ij: index(r1, r2), ji: index(r2, r1),
				f1: frow(t.N1), f2: frow(t.N2),
			})
		case *netlist.Capacitor:
			r1, r2 := row(t.N1), row(t.N2)
			p.caps = append(p.caps, capStamp{
				dev: t, n1: t.N1, n2: t.N2,
				ii: index(r1, r1), jj: index(r2, r2), ij: index(r1, r2), ji: index(r2, r1),
				f1: frow(t.N1), f2: frow(t.N2),
			})
		case *netlist.ISource:
			p.isrc = append(p.isrc, isrcStamp{dev: t, f1: frow(t.NP), f2: frow(t.NN)})
		case *netlist.VCCS:
			p.vccs = append(p.vccs, vccsStamp{
				dev: t,
				pcp: index(row(t.NP), row(t.NCP)), pcn: index(row(t.NP), row(t.NCN)),
				ncp: index(row(t.NN), row(t.NCP)), ncn: index(row(t.NN), row(t.NCN)),
				f1: frow(t.NP), f2: frow(t.NN),
			})
		case *netlist.VSource:
			bi := e.nNodes + branchIdx
			p.vsrc = append(p.vsrc, vsrcStamp{
				dev: t, bi: bi,
				npb: index(row(t.NP), bi), nnb: index(row(t.NN), bi),
				bnp: index(bi, row(t.NP)), bnn: index(bi, row(t.NN)),
				fp: frow(t.NP), fn: frow(t.NN),
			})
			branchIdx++
		case *netlist.VCVS:
			bi := e.nNodes + branchIdx
			p.vcvs = append(p.vcvs, vcvsStamp{
				dev: t, bi: bi,
				npb: index(row(t.NP), bi), nnb: index(row(t.NN), bi),
				bnp: index(bi, row(t.NP)), bnn: index(bi, row(t.NN)),
				bcp: index(bi, row(t.NCP)), bcn: index(bi, row(t.NCN)),
				fp: frow(t.NP), fn: frow(t.NN),
			})
			branchIdx++
		case *netlist.Mosfet:
			ms := mosStamp{dev: t}
			nodes := [4]int{t.D, t.G, t.S, t.B}
			for a := 0; a < 4; a++ {
				ms.fr[a] = frow(nodes[a])
				for b := 0; b < 4; b++ {
					ms.blk[a][b] = index(row(nodes[a]), row(nodes[b]))
				}
			}
			p.mos = append(p.mos, ms)
		}
	}
	return p
}

// stampDC assembles the Jacobian values and the KCL/branch residual F at x
// under ctx. vals and F must be zeroed by the caller; both carry a trailing
// write-off slot. scrV is the node-voltage view consumed by the device
// models (filled here, once per assembly).
//
// k and lane address structure-of-arrays lockstep storage: every cached
// index is scaled as idx·k+lane, so the same stamper fills a one-lane value
// array (k=1, lane=0) or one lane of a K-wide batch. The floating-point
// sequence is identical either way — the lane plumbing touches only
// addressing — which is what makes a lockstep lane bit-identical to a
// one-lane solve.
func (p *stampPlan) stampDC(vals, F []float64, k, lane int, x, scrV []float64, ctx stampCtx) {
	v := func(node int) float64 {
		if node == netlist.Ground {
			return 0
		}
		return x[node-1]
	}
	for i, idx := range p.gmin {
		vals[idx*k+lane] += ctx.gmin
		F[i*k+lane] += ctx.gmin * x[i]
	}
	for i := range p.res {
		s := &p.res[i]
		g := 1 / s.dev.R
		dv := v(s.n1) - v(s.n2)
		F[s.f1*k+lane] += g * dv
		F[s.f2*k+lane] -= g * dv
		vals[s.ii*k+lane] += g
		vals[s.jj*k+lane] += g
		vals[s.ij*k+lane] -= g
		vals[s.ji*k+lane] -= g
	}
	if ctx.h > 0 {
		// Companion models; capacitors are open in DC. Backward Euler uses
		// g = C/h and the pure difference current; trapezoidal uses g = 2C/h
		// and folds in the capacitor current of the previous accepted point
		// (i_{n+1} = (2C/h)·(Δv_{n+1} − Δv_n) − i_n), which is what makes it
		// second order.
		for i := range p.caps {
			s := &p.caps[i]
			g := s.dev.C / ctx.h
			dv := v(s.n1) - v(s.n2)
			dvPrev := ctx.vPrev[s.n1] - ctx.vPrev[s.n2]
			ic := g * (dv - dvPrev)
			if ctx.trap {
				g *= 2
				ic = 2*ic - ctx.icPrev[i]
			}
			F[s.f1*k+lane] += ic
			F[s.f2*k+lane] -= ic
			vals[s.ii*k+lane] += g
			vals[s.jj*k+lane] += g
			vals[s.ij*k+lane] -= g
			vals[s.ji*k+lane] -= g
		}
	}
	for i := range p.isrc {
		s := &p.isrc[i]
		val := ctx.srcScale * s.dev.SourceValue(ctx.time)
		F[s.f1*k+lane] += val
		F[s.f2*k+lane] -= val
	}
	for i := range p.vccs {
		s := &p.vccs[i]
		gm := s.dev.Gm
		vc := v(s.dev.NCP) - v(s.dev.NCN)
		F[s.f1*k+lane] += gm * vc
		F[s.f2*k+lane] -= gm * vc
		vals[s.pcp*k+lane] += gm
		vals[s.pcn*k+lane] -= gm
		vals[s.ncp*k+lane] -= gm
		vals[s.ncn*k+lane] += gm
	}
	for i := range p.vsrc {
		s := &p.vsrc[i]
		ib := x[s.bi]
		F[s.fp*k+lane] += ib
		F[s.fn*k+lane] -= ib
		vals[s.npb*k+lane] += 1
		vals[s.nnb*k+lane] -= 1
		// Branch equation: v(NP) - v(NN) - V = 0.
		F[s.bi*k+lane] += v(s.dev.NP) - v(s.dev.NN) - ctx.srcScale*s.dev.SourceValue(ctx.time)
		vals[s.bnp*k+lane] += 1
		vals[s.bnn*k+lane] -= 1
	}
	for i := range p.vcvs {
		s := &p.vcvs[i]
		ib := x[s.bi]
		F[s.fp*k+lane] += ib
		F[s.fn*k+lane] -= ib
		vals[s.npb*k+lane] += 1
		vals[s.nnb*k+lane] -= 1
		// v(NP) - v(NN) - gain·(v(NCP)-v(NCN)) = 0.
		F[s.bi*k+lane] += v(s.dev.NP) - v(s.dev.NN) - s.dev.Gain*(v(s.dev.NCP)-v(s.dev.NCN))
		vals[s.bnp*k+lane] += 1
		vals[s.bnn*k+lane] -= 1
		vals[s.bcp*k+lane] -= s.dev.Gain
		vals[s.bcn*k+lane] += s.dev.Gain
	}
	if len(p.mos) == 0 {
		return
	}
	scrV[netlist.Ground] = 0
	for i := 1; i < len(scrV); i++ {
		scrV[i] = x[i-1]
	}
	// The Newton loop reads only the DC fields of the operating point: the
	// capacitances are left to stampAC.
	var op mos.OP
	for i := range p.mos {
		ms := &p.mos[i]
		vgs, vds, vbs, swapped := mosBias(ms.dev, scrV)
		ms.dev.Dev.EvaluateDC(&op, vgs, vds, vbs)
		di, si := tD, tS
		if swapped {
			di, si = tS, tD
		}
		gsum := op.Gm + op.Gds + op.Gmb
		if !ms.dev.Dev.Params.PMOS {
			// NMOS: ID flows d → s; leaves node d. ∂ID/∂(vg,vd,vb,vs).
			F[ms.fr[di]*k+lane] += op.ID
			F[ms.fr[si]*k+lane] -= op.ID
			vals[ms.blk[di][tG]*k+lane] += op.Gm
			vals[ms.blk[di][di]*k+lane] += op.Gds
			vals[ms.blk[di][tB]*k+lane] += op.Gmb
			vals[ms.blk[di][si]*k+lane] -= gsum
			vals[ms.blk[si][tG]*k+lane] -= op.Gm
			vals[ms.blk[si][di]*k+lane] -= op.Gds
			vals[ms.blk[si][tB]*k+lane] -= op.Gmb
			vals[ms.blk[si][si]*k+lane] += gsum
		} else {
			// PMOS: ID flows s → d; ID = f(vsg, vsd, vsb).
			F[ms.fr[si]*k+lane] += op.ID
			F[ms.fr[di]*k+lane] -= op.ID
			vals[ms.blk[si][si]*k+lane] += gsum
			vals[ms.blk[si][tG]*k+lane] -= op.Gm
			vals[ms.blk[si][di]*k+lane] -= op.Gds
			vals[ms.blk[si][tB]*k+lane] -= op.Gmb
			vals[ms.blk[di][si]*k+lane] -= gsum
			vals[ms.blk[di][tG]*k+lane] += op.Gm
			vals[ms.blk[di][di]*k+lane] += op.Gds
			vals[ms.blk[di][tB]*k+lane] += op.Gmb
		}
	}
}

// stampAC fills the frequency-independent split of the small-signal system
// through the same cached indices: conductances and source couplings into
// gv, capacitances into cv (the ω factor is applied at assembly), and the AC
// drive into rhs. All three carry a trailing write-off slot. As in stampDC,
// k and lane scale every cached index for SoA lockstep storage; a one-lane
// group passes (1, 0).
func (p *stampPlan) stampAC(gv, cv []float64, rhs []complex128, k, lane int, op *OPResult, gmin float64) {
	for _, idx := range p.gmin {
		gv[idx*k+lane] += gmin // keeps floating nodes solvable
	}
	for i := range p.res {
		s := &p.res[i]
		g := 1 / s.dev.R
		gv[s.ii*k+lane] += g
		gv[s.jj*k+lane] += g
		gv[s.ij*k+lane] -= g
		gv[s.ji*k+lane] -= g
	}
	for i := range p.caps {
		s := &p.caps[i]
		c := s.dev.C
		cv[s.ii*k+lane] += c
		cv[s.jj*k+lane] += c
		cv[s.ij*k+lane] -= c
		cv[s.ji*k+lane] -= c
	}
	for i := range p.isrc {
		s := &p.isrc[i]
		if s.dev.ACMag != 0 {
			// AC current NP → NN through the source.
			rhs[s.f1*k+lane] -= complex(s.dev.ACMag, 0)
			rhs[s.f2*k+lane] += complex(s.dev.ACMag, 0)
		}
	}
	for i := range p.vccs {
		s := &p.vccs[i]
		gm := s.dev.Gm
		gv[s.pcp*k+lane] += gm
		gv[s.pcn*k+lane] -= gm
		gv[s.ncp*k+lane] -= gm
		gv[s.ncn*k+lane] += gm
	}
	for i := range p.vsrc {
		s := &p.vsrc[i]
		gv[s.npb*k+lane] += 1
		gv[s.nnb*k+lane] -= 1
		gv[s.bnp*k+lane] += 1
		gv[s.bnn*k+lane] -= 1
		rhs[s.bi*k+lane] = complex(s.dev.ACMag, 0)
	}
	for i := range p.vcvs {
		s := &p.vcvs[i]
		gv[s.npb*k+lane] += 1
		gv[s.nnb*k+lane] -= 1
		gv[s.bnp*k+lane] += 1
		gv[s.bnn*k+lane] -= 1
		gv[s.bcp*k+lane] -= s.dev.Gain
		gv[s.bcn*k+lane] += s.dev.Gain
	}
	for i := range p.mos {
		ms := &p.mos[i]
		// Re-derive the linearization from the stored DC solution,
		// including the drain/source orientation used there.
		var mop mos.OP
		vgs, vds, vbs, swapped := mosBias(ms.dev, op.V)
		ms.dev.Dev.EvaluateTo(&mop, vgs, vds, vbs)
		di, si := tD, tS
		if swapped {
			di, si = tS, tD
		}
		addG := func(a, b int, g float64) { gv[ms.blk[a][b]*k+lane] += g }
		cond := func(a, b int, g float64) {
			addG(a, a, g)
			addG(b, b, g)
			addG(a, b, -g)
			addG(b, a, -g)
		}
		capAB := func(a, b int, c float64) {
			cv[ms.blk[a][a]*k+lane] += c
			cv[ms.blk[b][b]*k+lane] += c
			cv[ms.blk[a][b]*k+lane] -= c
			cv[ms.blk[b][a]*k+lane] -= c
		}
		// Transconductances: i_d = gm·vgs + gmb·vbs (identical stamp for
		// NMOS and PMOS in the circuit frame).
		addG(di, tG, mop.Gm)
		addG(di, si, -mop.Gm)
		addG(si, tG, -mop.Gm)
		addG(si, si, mop.Gm)
		addG(di, tB, mop.Gmb)
		addG(di, si, -mop.Gmb)
		addG(si, tB, -mop.Gmb)
		addG(si, si, mop.Gmb)
		cond(di, si, mop.Gds)
		capAB(tG, si, mop.Cgs)
		capAB(tG, di, mop.Cgd)
		capAB(di, tB, mop.Cdb)
		capAB(si, tB, mop.Csb)
	}
}
