package workload

import (
	"testing"
	"testing/quick"

	"clustersim/internal/isa"
	"clustersim/internal/rng"
)

// testKernel returns a small kernel with every feature exercisable.
func testKernel() Kernel {
	return Kernel{
		Chains:   4,
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		MultFrac: 0.2, CrossFrac: 0.1, FreshFrac: 0.05,
		LoopBody: 20, LoopIters: 5,
		RandBranchFrac: 0.5, RandTakenProb: 0.5,
		Stride: 8, Footprint: 1 << 16,
		StaticBlocks: 3,
	}
}

func engineFor(k Kernel, seed uint64) *engine {
	return newEngine(program{
		name:   "test",
		phases: []Phase{{Name: "p0", Length: 1 << 40, Kernel: k}},
	}, seed)
}

func TestCompileBlockExactCounts(t *testing.T) {
	k := testKernel()
	var carry mixCarry
	code := compileBlock(k, rng.New(1), true, &carry)
	if len(code) != k.LoopBody {
		t.Fatalf("block length %d", len(code))
	}
	var loads, stores, branches int
	for _, s := range code[:len(code)-1] {
		switch s.class {
		case isa.Load:
			loads++
		case isa.Store:
			stores++
		case isa.Branch:
			branches++
		}
	}
	body := k.LoopBody - 1
	if want := int(k.LoadFrac*float64(body) + 0.5); loads != want {
		t.Errorf("loads %d, want %d", loads, want)
	}
	if want := int(k.StoreFrac*float64(body) + 0.5); stores != want {
		t.Errorf("stores %d, want %d", stores, want)
	}
	if want := int(k.BranchFrac*float64(body) + 0.5); branches != want {
		t.Errorf("branches %d, want %d", branches, want)
	}
	if !code[len(code)-1].loopEnd {
		t.Error("block does not end with a loop branch")
	}
}

func TestCompileBlockClassCountsIdenticalAcrossBlocks(t *testing.T) {
	// Phase detection compares per-interval branch/memref counts at a 1%
	// threshold; blocks of the same kernel must have identical class
	// counts (see mixCarry).
	k := testKernel()
	var carry mixCarry
	r := rng.New(2)
	count := func(code []staticInstr) [3]int {
		var c [3]int
		for _, s := range code[:len(code)-1] {
			switch s.class {
			case isa.Load:
				c[0]++
			case isa.Store:
				c[1]++
			case isa.Branch:
				c[2]++
			}
		}
		return c
	}
	first := count(compileBlock(k, r, true, &carry))
	for i := 0; i < 10; i++ {
		if got := count(compileBlock(k, r, true, &carry)); got != first {
			t.Fatalf("block %d counts %v differ from %v", i+1, got, first)
		}
	}
}

func TestRandomBranchCarryAccumulates(t *testing.T) {
	// With a sub-one expected random-branch count per block, the carry
	// must still realize the aggregate fraction across many blocks.
	k := testKernel()
	k.RandBranchFrac = 0.3 // 2 branch slots * 0.3 = 0.6 per block
	var carry mixCarry
	r := rng.New(3)
	randoms := 0
	const blocks = 100
	for i := 0; i < blocks; i++ {
		for _, s := range compileBlock(k, r, true, &carry) {
			if s.class == isa.Branch && s.random && !s.loopEnd {
				randoms++
			}
		}
	}
	// Expected: 2 branch slots/block * 0.3 * 100 blocks = 60.
	if randoms < 50 || randoms > 70 {
		t.Fatalf("random branch slots %d, want ~60", randoms)
	}
}

func TestChaseMakesLoadsSeriallyDependent(t *testing.T) {
	k := testKernel()
	k.Chase = true
	k.RandomAddr = true
	e := engineFor(k, 5)
	var in isa.Instruction
	dependent, loads := 0, 0
	for i := 0; i < 30_000; i++ {
		e.Next(&in)
		if in.Class == isa.Load {
			loads++
			if in.SrcDist1 > 0 {
				dependent++
			}
		}
	}
	if loads == 0 {
		t.Fatal("no loads")
	}
	if frac := float64(dependent) / float64(loads); frac < 0.9 {
		t.Fatalf("chase: only %.2f of loads depend on a prior load", frac)
	}
}

func TestAddrDepFracControlsLoadDependence(t *testing.T) {
	frac := func(adf float64) float64 {
		k := testKernel()
		k.AddrDepFrac = adf
		e := engineFor(k, 7)
		var in isa.Instruction
		dep, loads := 0, 0
		for i := 0; i < 30_000; i++ {
			e.Next(&in)
			if in.Class == isa.Load {
				loads++
				if in.SrcDist1 > 0 {
					dep++
				}
			}
		}
		return float64(dep) / float64(loads)
	}
	low, high := frac(0.1), frac(0.9)
	if high <= low {
		t.Fatalf("AddrDepFrac not controlling dependence: low %.2f high %.2f", low, high)
	}
}

func TestReuseFracControlsLocality(t *testing.T) {
	distinct := func(reuse float64) int {
		k := testKernel()
		k.ReuseFrac = reuse
		e := engineFor(k, 9)
		var in isa.Instruction
		addrs := map[uint64]bool{}
		for i := 0; i < 20_000; i++ {
			e.Next(&in)
			if in.Class.IsMem() {
				addrs[in.Addr] = true
			}
		}
		return len(addrs)
	}
	noReuse, heavyReuse := distinct(-1), distinct(0.8)
	if heavyReuse >= noReuse {
		t.Fatalf("reuse did not reduce distinct addresses: %d vs %d", heavyReuse, noReuse)
	}
}

func TestLoopExitRateMatchesIters(t *testing.T) {
	k := testKernel()
	k.LoopIters = 10
	k.IterJitter = 0
	e := engineFor(k, 11)
	var in isa.Instruction
	taken, notTaken := 0, 0
	for i := 0; i < 50_000; i++ {
		e.Next(&in)
		if in.Class == isa.Branch && in.Target < in.PC && in.Target != 0 {
			// backward (loop) branch
			if in.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if notTaken == 0 {
		t.Fatal("no loop exits")
	}
	ratio := float64(taken) / float64(notTaken)
	if ratio < 7 || ratio > 11 {
		t.Fatalf("taken/exit ratio %.1f, want ~9 for 10 iterations", ratio)
	}
}

func TestCursorStaggerSpreadsWraps(t *testing.T) {
	k := testKernel()
	k.Chains = 8
	e := engineFor(k, 13)
	// After phase entry, chain cursors must start staggered.
	same := 0
	for c := 1; c < len(e.cursor); c++ {
		if e.cursor[c] == e.cursor[0] {
			same++
		}
	}
	if same == len(e.cursor)-1 {
		t.Fatal("cursors not staggered")
	}
}

// Property: the engine never emits an instruction whose producer distance
// exceeds its sequence position.
func TestDistancesNeverExceedPosition(t *testing.T) {
	f := func(seed uint64) bool {
		e := engineFor(testKernel(), seed)
		var in isa.Instruction
		for i := uint64(0); i < 2000; i++ {
			e.Next(&in)
			if uint64(in.SrcDist1) > i || uint64(in.SrcDist2) > i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMixCarryTake(t *testing.T) {
	var m mixCarry
	total := 0
	for i := 0; i < 10; i++ {
		total += m.take(&m.random, 0.3)
	}
	// Floating-point accumulation may land on 2 or 3 (0.3 is inexact).
	if total < 2 || total > 3 {
		t.Fatalf("10 x 0.3 carried to %d, want 2..3", total)
	}
}
