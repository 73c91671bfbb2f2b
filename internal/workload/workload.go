// Package workload synthesizes the instruction streams the simulator runs.
//
// The paper evaluates nine programs — four SPEC2K integer (crafty, gzip,
// parser, vpr), three SPEC2K floating-point (galgel, mgrid, swim) and two
// Mediabench (cjpeg, djpeg) — none of which can be run here (no Alpha
// binaries, no Simplescalar, no reference inputs). The dynamic-tuning
// algorithms under study, however, observe a program only through a handful
// of metrics: IPC, branch and memory-reference frequency, branch
// predictability, the degree of *distant ILP* (instructions issued while far
// behind the ROB head) and how all of those vary over time (phase
// behaviour). This package substitutes each benchmark with a deterministic
// synthetic program engineered to match the paper's published
// characteristics for that benchmark:
//
//   - Table 3: baseline IPC class and branch-mispredict interval;
//   - Table 4: phase structure (minimum stable interval length and
//     instability at 10K-instruction intervals);
//   - §4 narrative: which programs have distant ILP (djpeg, swim, mgrid,
//     galgel), which alternate between distant-ILP and low-ILP phases
//     (gzip), and which have fine-grained phases (djpeg, cjpeg).
//
// Phase lengths are scaled ~10x down from the paper's (our simulation
// windows are millions, not hundreds of millions, of instructions); the
// ratio of phase length to measurement interval — the quantity the
// algorithms are sensitive to — is preserved.
//
// Each benchmark is a declarative spec (internal/spec) checked in as
// specs/<name>.json and embedded into the binary; those files are the only
// definition of the nine programs. New compiles them with Compile, which
// also builds any other spec, and Custom is the engine entry point beneath
// both.
//
// A program is a cyclic sequence of phases; each phase is a set of
// statically compiled basic blocks (stable PCs, so branch/bank/
// reconfiguration predictors can learn) executed as loops, with dynamic
// dependence distances that realize a target number of parallel dependence
// chains. See engine.go for the execution model.
package workload

import (
	"fmt"
	"sort"

	"clustersim/internal/isa"
)

// Generator produces a deterministic committed-path instruction stream.
// Implementations are not safe for concurrent use.
type Generator interface {
	// Name returns the benchmark name.
	Name() string
	// Next fills in with the next dynamic instruction.
	Next(in *isa.Instruction)
	// Reset rewinds the stream to the beginning.
	Reset()
}

// PaperData records the published characteristics a synthetic benchmark
// targets, for the EXPERIMENTS.md paper-vs-measured comparison.
type PaperData struct {
	// Suite is the benchmark's origin (SPEC2k Int, SPEC2k FP, Mediabench).
	Suite string
	// BaseIPC is Table 3's monolithic-processor IPC.
	BaseIPC float64
	// MispredictInterval is Table 3's instructions per branch mispredict.
	MispredictInterval float64
	// MinStableInterval is Table 4's minimum acceptable interval length
	// (instructions), in the paper's (unscaled) terms.
	MinStableInterval float64
	// InstabilityAt10K is Table 4's instability factor (percent) for a
	// 10K-instruction interval.
	InstabilityAt10K float64
	// PrefersWide reports whether Figure 3 shows the benchmark gaining
	// from 16 clusters (distant ILP).
	PrefersWide bool
}

// Benchmarks returns the sorted benchmark names.
func Benchmarks() []string {
	names := make([]string, 0, len(paperData))
	for name := range paperData {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Paper returns the published characteristics for a benchmark name.
func Paper(name string) (PaperData, bool) {
	p, ok := paperData[name]
	return p, ok
}

// New returns the named benchmark's generator, compiled from its embedded
// spec and seeded deterministically. The same (name, seed) pair always
// yields the identical stream.
func New(name string, seed uint64) (Generator, error) {
	if _, ok := paperData[name]; !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Benchmarks())
	}
	m, err := builtins()
	if err != nil {
		return nil, err
	}
	return Compile(m[name], seed)
}

// MustNew is New but panics on an unknown name.
func MustNew(name string, seed uint64) Generator {
	g, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return g
}
