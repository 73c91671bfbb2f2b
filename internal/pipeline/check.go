package pipeline

import (
	"clustersim/internal/interconnect"
	"clustersim/internal/mem"
)

// Checker observes a read-only view of the machine at the end of every
// simulated cycle. Implementations validate cycle-level invariants (package
// internal/check provides the standard set); they must not mutate the view
// and must not retain it or its slices across calls — the processor reuses
// one view for the whole run so a checked simulation never allocates on the
// hot path.
//
// A nil Config.Checker disables checking at the cost of a single pointer
// test per cycle, keeping unchecked runs perf-neutral.
type Checker interface {
	CheckCycle(v *MachineView)
}

// MachineView is the per-cycle machine state exposed to a Checker. All
// per-cluster slices are indexed by cluster and have Config.Clusters
// entries; they are refreshed in place every cycle.
type MachineView struct {
	// Cycle and Committed are the current cycle and cumulative commits.
	Cycle     uint64
	Committed uint64

	// HeadSeq, TailSeq and FetchSeq delimit the in-flight window:
	// HeadSeq is the oldest in-flight seq, TailSeq the next to dispatch,
	// FetchSeq the next to fetch. TailSeq-HeadSeq is the ROB occupancy.
	HeadSeq  uint64
	TailSeq  uint64
	FetchSeq uint64

	// Active is the current active-cluster count; Draining reports an
	// in-progress decentralized reconfiguration drain.
	Active   int
	Draining bool

	// FetchQueueLen is the fetch-queue occupancy.
	FetchQueueLen int

	// IQInt and IQFP are per-cluster issue-queue occupancies; IntRegs and
	// FPRegs are per-cluster physical registers in use; LSQ is the
	// per-cluster LSQ occupancy (loads plus store dummies, decentralized
	// model). LSQCentral is the centralized LSQ occupancy.
	IQInt, IQFP     []int
	IntRegs, FPRegs []int
	LSQ             []int
	LSQCentral      int

	// Stats points at the live cumulative pipeline counters.
	Stats *Result
	// MemStats and NetStats are this cycle's cumulative subsystem
	// statistics.
	MemStats mem.Stats
	NetStats interconnect.Stats

	// SteerFault is the zero value when the steering view (steer.go: the
	// per-resource full masks, the occupancy array, the level sets and the
	// lo/hi bounds) agrees with a recomputation from the counters above,
	// and describes the first disagreement otherwise.
	SteerFault SteerFault

	// Config is the machine configuration; NetDiameter the interconnect's
	// worst-case routed hop count (both fixed for the run).
	Config      *Config
	NetDiameter int

	steerRef steerView // recomputation scratch, allocated once
}

// initCheck wires the checker into the processor, pre-sizing the view's
// per-cluster slices so checked cycles never allocate.
func (p *Processor) initCheck(chk Checker) {
	p.chk = chk
	if chk == nil {
		return
	}
	n := p.cfg.Clusters
	p.view = MachineView{
		IQInt:       make([]int, n),
		IQFP:        make([]int, n),
		IntRegs:     make([]int, n),
		FPRegs:      make([]int, n),
		LSQ:         make([]int, n),
		Stats:       &p.stats,
		Config:      &p.cfg,
		NetDiameter: p.net.Diameter(),
		steerRef:    steerView{levels: make([]uint32, len(p.sv.levels))},
	}
}

// checkCycle refreshes the view and hands it to the checker. Called from
// step() only when a checker is attached.
func (p *Processor) checkCycle() {
	v := &p.view
	v.Cycle = p.cycle
	v.Committed = p.committed
	v.HeadSeq = p.headSeq
	v.TailSeq = p.tailSeq
	v.FetchSeq = p.fetchSeq
	v.Active = p.active
	v.Draining = p.draining
	v.FetchQueueLen = p.fqLen
	v.LSQCentral = p.lsqTotal
	for i := range p.clusters {
		cs := &p.clusters[i]
		v.IQInt[i] = cs.nInt
		v.IQFP[i] = cs.nFP
		v.IntRegs[i] = cs.intRegs
		v.FPRegs[i] = cs.fpRegs
		v.LSQ[i] = cs.lsq
	}
	v.MemStats = p.memsys.Stats()
	v.NetStats = p.net.Stats()
	v.SteerFault = p.steerFault(&v.steerRef)
	p.chk.CheckCycle(v)
}

// SteerFault describes the first disagreement between the steering view
// and its recomputation from the counters; What is empty when they agree.
type SteerFault struct {
	What  string // the part of the view that disagrees
	Index int    // the queue, cluster or level concerned
	Got   uint64 // the view's value
	Want  uint64 // the recomputed value, or the violated bound
}

// steerFault recomputes the steering view from the counters into ref and
// compares the incremental one against it. The bounds only need to
// enclose every active cluster's occupancy, so they are checked as bounds.
func (p *Processor) steerFault(ref *steerView) SteerFault {
	sv := &p.sv
	ref.computeFrom(p)
	for k := range sv.iqFull {
		if sv.iqFull[k] != ref.iqFull[k] {
			return SteerFault{"issue-queue full mask", k, uint64(sv.iqFull[k]), uint64(ref.iqFull[k])}
		}
		if sv.regFull[k] != ref.regFull[k] {
			return SteerFault{"register full mask", k, uint64(sv.regFull[k]), uint64(ref.regFull[k])}
		}
	}
	if sv.lsqFull != ref.lsqFull {
		return SteerFault{"LSQ full mask", 0, uint64(sv.lsqFull), uint64(ref.lsqFull)}
	}
	for c := range p.clusters {
		if sv.occ[c] != ref.occ[c] {
			return SteerFault{"occupancy of cluster", c, uint64(sv.occ[c]), uint64(ref.occ[c])}
		}
	}
	for o := range ref.levels {
		if sv.levels[o] != ref.levels[o] {
			return SteerFault{"clusters at level", o, uint64(sv.levels[o]), uint64(ref.levels[o])}
		}
	}
	if sv.lo < 0 || sv.hi >= len(sv.levels) || sv.lo > sv.hi {
		return SteerFault{"bounds outside the levels", len(sv.levels), uint64(sv.lo), uint64(sv.hi)}
	}
	for c := 0; c < p.active; c++ {
		if occ := sv.occ[c]; occ < sv.lo {
			return SteerFault{"occupancy below the lo bound, cluster", c, uint64(occ), uint64(sv.lo)}
		} else if occ > sv.hi {
			return SteerFault{"occupancy above the hi bound, cluster", c, uint64(occ), uint64(sv.hi)}
		}
	}
	return SteerFault{}
}
