package pipeline

import "clustersim/internal/isa"

// unknown is the sentinel for an operand arrival that cannot be computed
// yet (its producer has not issued). Valid cycle numbers start at 1.
const unknown = ^uint64(0)

// uop is the hot part of one in-flight dynamic instruction (a ROB entry);
// uopCold is the rest, in a parallel array indexed the same way.
//
// Layout: the first 64 bytes are exactly the fields an issue-path
// evaluation touches (the wake paths read key/wHead/wNext, the readiness
// guards read readyAt/dispatchReady/src1At/src2At), and the next 64 hold
// what a producer probe and steering's producer lookups need (doneAt,
// issued, cluster, the instruction's class and operand distances); the
// tail ends with the load-ordering fields the memory stage polls. The
// entry is 176 bytes. What issue and steering never read lives in
// uopCold: the 128-byte forwarding cache, read only on a cross-cluster
// transfer, the decentralized-cache fields and the load-ordering links.
// Before the split the entry was 312 bytes.
type uop struct {
	seq uint64

	// readyAt is a wakeup hint: the earliest cycle at which re-checking
	// issue readiness can possibly succeed (the max of the known-future
	// necessary conditions at the last failed check).
	readyAt uint64
	// dispatchReady is the cycle the instruction sits in its cluster's
	// issue queue (dispatch cycle plus the non-uniform dispatch hops).
	dispatchReady uint64
	// src1At and src2At cache operand arrival cycles at this cluster;
	// unknown until computable. Arrivals decidable at dispatch (no
	// in-flight producer) are precomputed there.
	src1At, src2At uint64

	// wHead and wNext are the event stepper's intrusive wait-chain links:
	// wHead is seq+1 of the newest unissued consumer blocked on this
	// instruction (0 = none); wNext chains this instruction through its
	// producer's wait chain (see sched.go). Always zero under the legacy
	// stepper and in snapshots (links are rebuilt on load).
	wHead, wNext uint64

	// key is the packed agenda key (cluster, fp-queue bit, seq — see
	// sched.go), cached at dispatch so the wake paths never recompute
	// it. Rebuilt alongside the links on checkpoint load; unused under
	// the legacy stepper.
	key uint64

	// issueAt and doneAt are the issue cycle and the cycle the result is
	// available for same-cluster consumers. For memory operations doneAt
	// is valid only once memDone is set.
	doneAt  uint64
	issueAt uint64

	cluster int32

	issued       bool
	memDone      bool
	memStarted   bool
	distant      bool
	mispredicted bool
	bankMispred  bool

	in isa.Instruction

	// agenDoneAt is the cycle a memory operation's effective address is
	// known (address generation complete).
	agenDoneAt uint64
	// waitStore, when nonzero, is seq+1 of the unresolved older store
	// that blocked this load's last ordering attempt.
	waitStore uint64

	// ldWake is, for a pending load, the next cycle an ordering attempt
	// can succeed (unknown while parked on an unissued store; lsq.go).
	// Rebuilt on checkpoint load.
	ldWake uint64
}

// uopCold holds the ROB-entry fields off the issue and steering fast paths.
// The snapshot encodes a uop and its uopCold as one entry (saveUop).
type uopCold struct {
	// fwd caches the arrival cycle of this instruction's result at each
	// consumer cluster (0 = not yet transferred), so one physical
	// transfer serves all consumers in a cluster.
	fwd [MaxClusters]uint64

	// resolveGlobalAt is, for stores, the cycle the address is known in
	// every cluster: under the decentralized LSQ the cycle the address
	// broadcast reaches every other cluster and the dummy slots
	// dissolve, under the centralized one agenDoneAt.
	resolveGlobalAt uint64
	// predictedHome is the bank-predictor's steering hint for memory
	// operations under the decentralized cache.
	predictedHome int32
	// activeAtDispatch records how many clusters were active when this
	// instruction dispatched (store dummies span exactly that set).
	activeAtDispatch int32

	// Load-ordering links (lsq.go), rebuilt on checkpoint load. For a
	// load: fwdFrom is seq+1 of the youngest older store to the same
	// address (0 = none), clearOrd the store-window cursor below which
	// older stores are still to be checked, and ldNext the next load
	// parked on the same store. For a store: stPrev is seq+1 of the next
	// older store in its index bucket, and ldHead the first load parked
	// on it.
	fwdFrom, clearOrd, ldNext uint64
	stPrev, ldHead            uint64
}

// isStore and isLoad are convenience accessors.
func (u *uop) isStore() bool { return u.in.Class == isa.Store }
func (u *uop) isLoad() bool  { return u.in.Class == isa.Load }

// fqEntry is a fetched instruction waiting to dispatch.
type fqEntry struct {
	in       isa.Instruction
	seq      uint64
	earliest uint64 // earliest dispatch cycle (front-end pipeline depth)
	mispred  bool   // this control transfer redirected the front-end
}

// fuKind classifies functional units within a cluster.
type fuKind uint8

const (
	fuIntALU fuKind = iota
	fuIntMulDiv
	fuFPALU
	fuFPMulDiv
	numFUKinds
)

// fuFor maps an operation class to the functional unit that executes it.
// Loads, stores and control transfers use the integer ALU for address
// generation / resolution.
func fuFor(c isa.Class) fuKind {
	switch c {
	case isa.IntMult, isa.IntDiv:
		return fuIntMulDiv
	case isa.FPALU:
		return fuFPALU
	case isa.FPMult, isa.FPDiv:
		return fuFPMulDiv
	default:
		return fuIntALU
	}
}

// clusterState holds one cluster's queues, registers and functional units.
type clusterState struct {
	// iqInt and iqFP hold seqs of dispatched, unissued instructions in
	// program order. The event stepper keeps them empty (the wheel and
	// wait chains replace the scan) and derives them on checkpoint save;
	// nInt and nFP count the occupancy in both modes.
	iqInt, iqFP []uint64
	nInt, nFP   int
	// intRegs and fpRegs count physical registers in use.
	intRegs, fpRegs int
	// lsq counts occupied LSQ slots (loads steered here, plus store
	// dummies under the decentralized model).
	lsq int
	// fuFree[k] holds the next-free cycle of each unit of kind k.
	fuFree [numFUKinds][]uint64
}

func newClusterState(cfg *Config) clusterState {
	var cs clusterState
	cs.iqInt = make([]uint64, 0, cfg.IQPerCluster)
	cs.iqFP = make([]uint64, 0, cfg.IQPerCluster)
	counts := [numFUKinds]int{cfg.IntALU, cfg.IntMulDiv, cfg.FPALU, cfg.FPMulDiv}
	// One contiguous backing array for all kinds keeps the per-kind
	// slices on the same cache line in the common small-count configs.
	total := 0
	for _, n := range counts {
		total += n
	}
	buf := make([]uint64, total)
	for k := range cs.fuFree {
		cs.fuFree[k], buf = buf[:counts[k]:counts[k]], buf[counts[k]:]
	}
	return cs
}

// iqFor returns the issue queue (integer or floating point) for a class.
func (cs *clusterState) iqFor(c isa.Class) *[]uint64 {
	if c.IsFP() {
		return &cs.iqFP
	}
	return &cs.iqInt
}

// occupancy returns the total issue-queue occupancy (the steering
// heuristic's load metric). Counter-based so it holds under both steppers.
func (cs *clusterState) occupancy() int { return cs.nInt + cs.nFP }

// iqCount returns the occupancy of the queue serving a class.
func (cs *clusterState) iqCount(c isa.Class) int {
	if c.IsFP() {
		return cs.nFP
	}
	return cs.nInt
}

// takeFU reserves a unit of kind k at cycle now; on success next is
// meaningless, on failure it is the earliest cycle any unit of the kind
// accepts work — the sound re-park cycle (unit free times only ever move
// later, so nothing frees before it). busyUntil is the cycle the taken
// unit next accepts work (now+1 for pipelined classes, completion for
// divides). One pass serves both outcomes: the scan that proves no unit is
// free has already seen every free time.
func (cs *clusterState) takeFU(k fuKind, now, busyUntil uint64) (ok bool, next uint64) {
	units := cs.fuFree[k]
	next = units[0]
	for i := range units {
		if units[i] <= now {
			units[i] = busyUntil
			return true, 0
		}
		if units[i] < next {
			next = units[i]
		}
	}
	return false, next
}

// dummyRelease schedules the dissolution of a store's dummy LSQ slot in a
// cluster at a known cycle (the store-address broadcast arrival).
type dummyRelease struct {
	at      uint64
	cluster int32
}
