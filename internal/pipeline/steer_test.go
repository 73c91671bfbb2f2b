package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/workload"
)

// refCanAccept and refSteerOperandMajority are the per-cluster acceptance
// probe and the full-scan operand-majority heuristic that the steering view
// replaced, kept verbatim as the reference FuzzSteerEquivalence holds the
// O(votes) version to. They read the counters, never the view.
func refCanAccept(p *Processor, c int, in *isa.Instruction) bool {
	cs := &p.clusters[c]
	if cs.iqCount(in.Class) >= p.cfg.IQPerCluster {
		return false
	}
	if in.HasDest {
		if in.Class.IsFP() {
			if cs.fpRegs >= p.cfg.RegsPerCluster {
				return false
			}
		} else if cs.intRegs >= p.cfg.RegsPerCluster {
			return false
		}
	}
	if in.Class.IsMem() {
		if p.cfg.Cache == CentralizedCache {
			if p.lsqTotal >= p.cfg.LSQPerCluster*p.cfg.Clusters {
				return false
			}
		} else if cs.lsq >= p.cfg.LSQPerCluster {
			return false
		}
	}
	return true
}

func refSteerOperandMajority(p *Processor, in *isa.Instruction, seq uint64) int {
	active := p.active
	var votes [MaxClusters]int

	c1 := p.producerCluster(seq, in.SrcDist1)
	c2 := p.producerCluster(seq, in.SrcDist2)
	if c1 >= 0 && c1 < active {
		votes[c1]++
		if p.predictedCritical(seq, in.SrcDist1) {
			votes[c1]++
		}
	}
	if c2 >= 0 && c2 < active {
		votes[c2]++
		if p.predictedCritical(seq, in.SrcDist2) {
			votes[c2]++
		}
	}
	if in.Class.IsMem() && p.cfg.Cache == DecentralizedCache {
		home, confident := p.predictHomeConfident(in)
		if confident && home < active {
			votes[home] += 4
		}
	}

	minOcc, maxOcc := 1<<30, -1
	minIdx := -1
	best := -1
	bestScore := -(1 << 60)
	for c := 0; c < active; c++ {
		occ := p.clusters[c].occupancy()
		if occ > maxOcc {
			maxOcc = occ
		}
		if !refCanAccept(p, c, in) {
			continue
		}
		if occ < minOcc {
			minOcc = occ
			minIdx = c
		}
		score := votes[c]*1024 - occ
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	if minIdx < 0 {
		return -1
	}
	if maxOcc-minOcc >= p.cfg.ImbalanceThreshold {
		return minIdx
	}
	return best
}

func refSteerFirstFit(p *Processor, in *isa.Instruction) int {
	for c := 0; c < p.active; c++ {
		if refCanAccept(p, c, in) {
			return c
		}
	}
	return -1
}

// steerWindow is the in-flight window the fuzzed steering queries look
// back into: producers at seqs [steerHead, steerHead+steerWindow), and the
// steered instruction at the window's tail.
const (
	steerHead   = 1 << 10
	steerWindow = 32
)

// FuzzSteerEquivalence drives random counter states, active-set changes,
// operand votes, criticality, instruction classes and both cache models
// through the incremental steering view, and requires every steering
// decision to equal the reference full scan's. Counter moves go through the
// same update sites dispatch, issue and commit use, so the view is
// exercised incrementally, with the bounds widened and tightened between
// queries; the checker-path recomputation must agree after every move.
func FuzzSteerEquivalence(f *testing.F) {
	f.Add(uint8(15), uint8(14), uint8(29), uint8(14), uint8(7), false, false,
		[]byte("0123456789abcdefghijklmnopqrstuv"),
		[]byte("\x00\x01\x00\x00\x02\x01\x07\x01\x05\x02\x03\x00\x06\x03\x00\x07\x04\x27\x04\x05\x00\x07\x09\x13"))
	f.Add(uint8(3), uint8(2), uint8(1), uint8(0), uint8(0), true, true,
		[]byte("\xff\x10\x21\x32\x43\x54\x65\x76\x87\x98"),
		[]byte("\x00\x00\x00\x00\x01\x01\x04\x02\x00\x06\x03\x00\x07\x02\x15\x07\x03\x0b\x00\x02\x01\x07\x08\x33"))
	f.Fuzz(func(t *testing.T, clusters, iq, regs, lsq, thr uint8, dist, perfect bool, window, ops []byte) {
		cfg := DefaultConfig()
		cfg.Clusters = 1 + int(clusters)%MaxClusters
		cfg.ActiveClusters = cfg.Clusters
		cfg.IQPerCluster = 1 + int(iq)%24
		cfg.RegsPerCluster = 1 + int(regs)%32
		cfg.LSQPerCluster = 1 + int(lsq)%24
		cfg.ImbalanceThreshold = 1 + int(thr)%40
		if dist {
			cfg.Clusters = 1 << (clusters % 5) // one L1 bank per cluster: a power of two
			cfg.ActiveClusters = cfg.Clusters
			cfg.Cache = DecentralizedCache
			cfg.PerfectBankPred = perfect
		}
		p, err := New(cfg, workload.MustNew("gzip", 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		p.cycle = 100
		p.headSeq = steerHead
		p.tailSeq = steerHead + steerWindow
		for i := 0; i < steerWindow; i++ {
			u := p.at(steerHead + uint64(i))
			*u = uop{seq: steerHead + uint64(i), in: isa.Instruction{Class: isa.IntALU}}
			if i < len(window) {
				b := window[i]
				u.cluster = int32(int(b) % cfg.Clusters)
				u.issued = b&0x10 != 0
				u.doneAt = p.cycle - 1 + uint64(b>>5)%3 // done, completing now, or later
			}
		}
		ref := steerView{levels: make([]uint32, len(p.sv.levels))}
		check := func(what string) {
			if fault := p.steerFault(&ref); fault.What != "" {
				t.Fatalf("after %s: %+v", what, fault)
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b, c := ops[0], ops[1], ops[2]
			cl := int(b) % cfg.Clusters
			cls := isa.IntALU
			if c&1 != 0 {
				cls = isa.FPALU
			}
			cs := &p.clusters[cl]
			switch a % 8 {
			case 0:
				if cs.iqCount(cls) < cfg.IQPerCluster {
					p.iqDelta(cl, cls, 1)
				}
			case 1:
				if cs.iqCount(cls) > 0 {
					p.iqDelta(cl, cls, -1)
				}
			case 2, 3:
				n := cs.intRegs
				if cls.IsFP() {
					n = cs.fpRegs
				}
				if a%8 == 2 && n < cfg.RegsPerCluster {
					p.regDelta(cl, cls, 1)
				} else if a%8 == 3 && n > 0 {
					p.regDelta(cl, cls, -1)
				}
			case 4, 5:
				d := 1
				if a%8 == 5 {
					d = -1
				}
				if cfg.Cache == CentralizedCache {
					if n := p.lsqTotal + d; n >= 0 && n <= cfg.LSQPerCluster*cfg.Clusters {
						p.lsqTotalDelta(d)
					}
				} else if n := cs.lsq + d; n >= 0 && n <= cfg.LSQPerCluster {
					p.lsqDelta(cl, d)
				}
			case 6:
				p.active = 1 + int(b)%cfg.Clusters
				p.sv.resetBounds()
			case 7:
				in := isa.Instruction{
					Class:    isa.Class(b % uint8(isa.NumClasses)),
					HasDest:  c&1 != 0,
					SrcDist1: uint32(c>>1) % (steerWindow + 4),
					SrcDist2: uint32(c>>4) % (steerWindow + 4),
					Addr:     uint64(a) << 6,
				}
				seq := p.tailSeq
				want := refSteerOperandMajority(p, &in, seq)
				if got := p.steerOperandMajority(&in, seq); got != want {
					t.Fatalf("operand majority steered %+v to %d, reference scan %d (active %d, occ %v)",
						in, got, want, p.active, p.sv.occ[:cfg.Clusters])
				}
				if got, want := p.steerFirstFit(&in), refSteerFirstFit(p, &in); got != want {
					t.Fatalf("first fit steered %+v to %d, reference scan %d", in, got, want)
				}
			}
			check("op")
		}
	})
}

// TestSteerViewSurvivesGrowingActiveSet grows the active set 4 -> 16 while
// the four active clusters hold work, then keeps dispatching: the bounds
// tightened against the small set must be widened for the clusters that
// just became active (their occupancy, zero, lies below them).
func TestSteerViewSurvivesGrowingActiveSet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActiveClusters = 4
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	mustRun(t, p, 20_000)
	ref := steerView{levels: make([]uint32, len(p.sv.levels))}
	for i := 0; p.iqOcc < 8; i++ {
		if i == 10_000 {
			t.Fatalf("the four active clusters never held 8 queued instructions (holding %d)", p.iqOcc)
		}
		p.step()
	}
	if fault := p.steerFault(&ref); fault.What != "" {
		t.Fatalf("before growing: %+v", fault)
	}
	p.requestActive(16)
	grown := false
	for i := 0; i < 5_000; i++ {
		p.step()
		if fault := p.steerFault(&ref); fault.What != "" {
			t.Fatalf("cycle %d after growing 4->16: %+v", i, fault)
		}
		for c := 4; c < cfg.Clusters; c++ {
			grown = grown || p.sv.occ[c] > 0
		}
	}
	if !grown {
		t.Fatal("no instruction was steered to a newly active cluster")
	}
}

// TestLoadCheckpointRejectsOverfullIssueQueue: the steering view indexes
// its levels by occupancy, so a snapshot whose issue queues exceed
// IQPerCluster must fail to load with an error instead of a panic.
func TestLoadCheckpointRejectsOverfullIssueQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LegacyStepper = true // its issue-queue lists are what the snapshot writes
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	mustRun(t, p, 1_000)
	cs := &p.clusters[0]
	for len(cs.iqInt) <= cfg.IQPerCluster {
		cs.iqInt = append(cs.iqInt, p.headSeq)
	}
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	err := MustNew(cfg, workload.MustNew("gzip", 1), nil).LoadCheckpoint(&buf)
	if err == nil || !strings.Contains(err.Error(), "issue queues hold") {
		t.Fatalf("overfull issue queue loaded: %v", err)
	}
}
