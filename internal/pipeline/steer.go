package pipeline

import (
	"math/bits"

	"clustersim/internal/isa"
)

// steer picks the cluster for an instruction about to dispatch, or -1 when
// no active cluster can accept it this cycle. It implements §2.1's
// heuristics: the default steers an instruction to the cluster that produces
// most of its operands, prefers the predicted-critical operand's cluster on
// a tie, gives memory operations an affinity for the cluster that services
// their cache bank, and overrides everything when issue-queue occupancy is
// visibly imbalanced. Mod_N and First_Fit are the comparison heuristics
// from Baniasadi and Moshovos that the default approximates at threshold
// extremes.
func (p *Processor) steer(in *isa.Instruction, seq uint64) int {
	switch p.cfg.Steering {
	case SteerModN:
		return p.steerModN(in)
	case SteerFirstFit:
		return p.steerFirstFit(in)
	default:
		return p.steerOperandMajority(in, seq)
	}
}

// steerView is the steering heuristics' incremental picture of the
// clusters, kept exact by the counter sites that move it (dispatch, issue,
// commit, lsqDelta) so that steering costs O(votes) per instruction instead
// of a per-cluster acceptance probe.
//
// Every mask has bit c set for cluster c. The full masks record which
// clusters have no room left for a resource; acceptMask combines them into
// the one acceptance rule. occ is every cluster's issue-queue occupancy
// (integer plus floating point) and levels[o] the set of clusters whose
// occupancy is o. lo and hi bound the occupancy of every active cluster:
// the counter sites only ever widen them, and steering tightens them
// lazily to the nearest level holding an active cluster. Because the
// tightening is relative to the active set, the bounds are reset whenever
// it changes (resetBounds).
type steerView struct {
	occ    [MaxClusters]int
	levels []uint32 // 2*IQPerCluster+1 levels, allocated once in New
	lo, hi int

	iqFull  [2]uint32 // per queue (queueOf): occupancy at IQPerCluster
	regFull [2]uint32 // per register file (queueOf): registers at RegsPerCluster
	// lsqFull holds the clusters that cannot take a memory operation: the
	// per-cluster LSQs at capacity under the decentralized model, every
	// cluster when the shared LSQ is full under the centralized one.
	lsqFull uint32
}

// queueOf indexes the per-class resources: 0 for the integer issue queue
// and register file, 1 for the floating-point ones.
func queueOf(c isa.Class) int {
	if c.IsFP() {
		return 1
	}
	return 0
}

// setBit sets or clears bit c of *m.
func setBit(m *uint32, c int, on bool) {
	if on {
		*m |= 1 << uint(c)
	} else {
		*m &^= 1 << uint(c)
	}
}

// move shifts cluster c's occupancy by d, keeping its level and the bounds.
func (sv *steerView) move(c, d int) {
	o := sv.occ[c]
	n := o + d
	sv.levels[o] &^= 1 << uint(c)
	sv.levels[n] |= 1 << uint(c)
	sv.occ[c] = n
	if n < sv.lo {
		sv.lo = n
	}
	if n > sv.hi {
		sv.hi = n
	}
}

// resetBounds widens lo and hi to the full level range. Called whenever the
// active set changes: bounds tightened against the old set need not hold
// for a cluster that has just become active.
func (sv *steerView) resetBounds() {
	sv.lo, sv.hi = 0, len(sv.levels)-1
}

// activeMask returns the set of dispatch-enabled clusters.
func (p *Processor) activeMask() uint32 { return 1<<uint(p.active) - 1 }

// acceptMask returns the active clusters with the resources the
// instruction needs: an issue-queue slot, a destination register if one is
// written, and an LSQ slot for memory operations. Stores under the
// decentralized model additionally need a dummy slot in every other active
// LSQ; that is checked separately in dispatchStage because it is
// independent of the steering choice.
func (p *Processor) acceptMask(in *isa.Instruction) uint32 {
	k := queueOf(in.Class)
	full := p.sv.iqFull[k]
	if in.HasDest {
		full |= p.sv.regFull[k]
	}
	if in.Class.IsMem() {
		full |= p.sv.lsqFull
	}
	return p.activeMask() &^ full
}

// iqDelta adjusts the occupancy of cluster c's issue queue for class cls by
// d (+1 on dispatch, -1 on issue).
func (p *Processor) iqDelta(c int, cls isa.Class, d int) {
	cs := &p.clusters[c]
	n := &cs.nInt
	if cls.IsFP() {
		n = &cs.nFP
	}
	*n += d
	setBit(&p.sv.iqFull[queueOf(cls)], c, *n >= p.cfg.IQPerCluster)
	p.iqOcc += d
	p.sv.move(c, d)
}

// regDelta adjusts cluster c's in-use count of the register file serving
// cls by d.
func (p *Processor) regDelta(c int, cls isa.Class, d int) {
	cs := &p.clusters[c]
	n := &cs.intRegs
	if cls.IsFP() {
		n = &cs.fpRegs
	}
	*n += d
	setBit(&p.sv.regFull[queueOf(cls)], c, *n >= p.cfg.RegsPerCluster)
}

// lsqTotalDelta adjusts the centralized LSQ occupancy by d.
func (p *Processor) lsqTotalDelta(d int) {
	p.lsqTotal += d
	p.sv.lsqFull = p.centralLSQFull()
}

// centralLSQFull is the centralized model's LSQ full mask: every cluster
// when the shared LSQ is full, none otherwise.
func (p *Processor) centralLSQFull() uint32 {
	if p.lsqTotal >= p.cfg.LSQPerCluster*p.cfg.Clusters {
		return ^uint32(0)
	}
	return 0
}

// lsqDelta adjusts a cluster's LSQ occupancy under the decentralized model.
func (p *Processor) lsqDelta(c, d int) {
	cs := &p.clusters[c]
	cs.lsq += d
	setBit(&p.sv.lsqFull, c, cs.lsq >= p.cfg.LSQPerCluster)
}

// computeFrom sets sv to the steering view of p's counters, with the
// widest bounds: the view's initial state in New, its rebuild on
// checkpoint load (snapshots carry only the counters), and the reference
// the attached checker compares the incremental view against.
func (sv *steerView) computeFrom(p *Processor) {
	for i := range sv.levels {
		sv.levels[i] = 0
	}
	sv.iqFull, sv.regFull, sv.lsqFull = [2]uint32{}, [2]uint32{}, 0
	for c := range p.clusters {
		cs := &p.clusters[c]
		sv.occ[c] = cs.nInt + cs.nFP
		sv.levels[sv.occ[c]] |= 1 << uint(c)
		setBit(&sv.iqFull[0], c, cs.nInt >= p.cfg.IQPerCluster)
		setBit(&sv.iqFull[1], c, cs.nFP >= p.cfg.IQPerCluster)
		setBit(&sv.regFull[0], c, cs.intRegs >= p.cfg.RegsPerCluster)
		setBit(&sv.regFull[1], c, cs.fpRegs >= p.cfg.RegsPerCluster)
		setBit(&sv.lsqFull, c, cs.lsq >= p.cfg.LSQPerCluster)
	}
	if p.cfg.Cache == CentralizedCache {
		sv.lsqFull = p.centralLSQFull()
	}
	sv.resetBounds()
}

// producerCluster returns the cluster of the in-flight producer dist back
// from seq, or -1 if the producer has retired (its value is architected).
func (p *Processor) producerCluster(seq uint64, dist uint32) int {
	if dist == 0 {
		return -1
	}
	pseq := seq - uint64(dist)
	if pseq+uint64(dist) < uint64(dist) || pseq < p.headSeq || pseq >= p.tailSeq {
		return -1
	}
	return int(p.at(pseq).cluster)
}

// producerUnfinished reports whether the producer dist back from seq is
// still executing (the last-arriving-operand criticality hint).
func (p *Processor) producerUnfinished(seq uint64, dist uint32) bool {
	if dist == 0 {
		return false
	}
	pseq := seq - uint64(dist)
	if pseq < p.headSeq || pseq >= p.tailSeq {
		return false
	}
	u := p.at(pseq)
	if !u.issued {
		return true
	}
	if u.isLoad() && !u.memDone {
		return true
	}
	return u.doneAt > p.cycle
}

// steerOperandMajority scores every accepting cluster votes*1024 - occ and
// takes the best, ties toward the lower index, unless the occupancy spread
// across the active clusters reaches ImbalanceThreshold, in which case the
// least loaded accepting cluster (lowest index among equals) wins. Only
// clusters with votes can score above the least loaded accepting cluster
// minIdx — a cluster with no votes scores -occ ≤ -occ[minIdx], and ties
// with minIdx only from a higher index — so the candidates are the (at most
// three) voted clusters plus minIdx, and the result is exactly the full
// per-cluster scan's for any IQPerCluster (docs/ALGORITHMS.md §5).
func (p *Processor) steerOperandMajority(in *isa.Instruction, seq uint64) int {
	acc := p.acceptMask(in)
	if acc == 0 {
		return -1 // nothing can accept it
	}
	sv := &p.sv
	act := p.activeMask()
	for sv.levels[sv.hi]&act == 0 {
		sv.hi--
	}
	for sv.levels[sv.lo]&act == 0 {
		sv.lo++
	}
	minOcc := sv.lo
	for sv.levels[minOcc]&acc == 0 {
		minOcc++
	}
	minIdx := bits.TrailingZeros32(sv.levels[minOcc] & acc)
	// Load-imbalance override: when the spread between the most loaded
	// active cluster and the least loaded accepting one reaches the
	// threshold, ignore affinity and steer to the least loaded.
	if sv.hi-minOcc >= p.cfg.ImbalanceThreshold {
		return minIdx
	}

	// Votes: one per operand produced in a cluster, two for the operand
	// predicted to arrive last (criticality).
	active := p.active
	c1 := p.producerCluster(seq, in.SrcDist1)
	c2 := p.producerCluster(seq, in.SrcDist2)
	w1, w2 := 0, 0
	if c1 >= 0 && c1 < active {
		w1 = 1
		if p.predictedCritical(seq, in.SrcDist1) {
			w1 = 2
		}
	}
	if c2 >= 0 && c2 < active {
		w2 = 1
		if p.predictedCritical(seq, in.SrcDist2) {
			w2 = 2
		}
	}
	// Memory operations favor the cluster that services their bank under
	// the decentralized cache (§5: "performance is maximized when a load
	// or store is steered to the cluster that is predicted to cache the
	// corresponding data"). The bank dependence dominates: a load or store
	// not in its bank's cluster pays two transfers (address there, data
	// back), so a confident prediction outweighs operand affinity.
	home := -1
	if in.Class.IsMem() && p.cfg.Cache == DecentralizedCache {
		if h, confident := p.predictHomeConfident(in); confident && h < active {
			home = h
		}
	}

	best, bestScore := minIdx, -minOcc
	for _, c := range [3]int{c1, c2, home} {
		if c < 0 || acc&(1<<uint(c)) == 0 {
			continue
		}
		votes := 0
		if c == c1 {
			votes += w1
		}
		if c == c2 {
			votes += w2
		}
		if c == home {
			votes += 4
		}
		if score := votes*1024 - sv.occ[c]; score > bestScore || (score == bestScore && c < best) {
			best, bestScore = c, score
		}
	}
	return best
}

func (p *Processor) steerModN(in *isa.Instruction) int {
	active := p.active
	acc := p.acceptMask(in)
	for tries := 0; tries < active; tries++ {
		c := p.modNCluster
		if p.modNCount >= p.cfg.ModN {
			p.modNCount = 0
			p.modNCluster = (p.modNCluster + 1) % active
			c = p.modNCluster
		}
		if c >= active {
			p.modNCluster, p.modNCount = 0, 0
			c = 0
		}
		if acc&(1<<uint(c)) != 0 {
			p.modNCount++
			return c
		}
		// Cluster full: move on without consuming the quota.
		p.modNCluster = (p.modNCluster + 1) % active
		p.modNCount = 0
	}
	return -1
}

func (p *Processor) steerFirstFit(in *isa.Instruction) int {
	acc := p.acceptMask(in)
	if acc == 0 {
		return -1
	}
	return bits.TrailingZeros32(acc)
}

// predictHome returns the cluster predicted to cache a memory instruction's
// data under the decentralized model (oracle under PerfectBankPred).
func (p *Processor) predictHome(in *isa.Instruction) int {
	if p.cfg.PerfectBankPred || p.bankp == nil {
		return p.memsys.HomeCluster(in.Addr)
	}
	return p.bankp.Predict(in.PC, p.active)
}

// predictHomeConfident is predictHome plus the predictor's confidence.
func (p *Processor) predictHomeConfident(in *isa.Instruction) (int, bool) {
	if p.cfg.PerfectBankPred || p.bankp == nil {
		return p.memsys.HomeCluster(in.Addr), true
	}
	return p.bankp.PredictConfident(in.PC, p.active)
}
