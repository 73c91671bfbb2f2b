package workload

import (
	"sort"
	"testing"
)

// sortedKeys returns a map's keys in sorted order so test sweeps iterate
// (and report failures) deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestProgramDefinitionsSane validates every benchmark's embedded spec and
// the kernel parameters it compiles to, so a mistyped constant fails fast
// rather than producing a silently miscalibrated program. Every length and
// chain count must be a constant: a benchmark must never vary with the
// spec expansion RNG.
func TestProgramDefinitionsSane(t *testing.T) {
	m, err := builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Benchmarks() {
		s := m[name]
		if s.Name != name {
			t.Errorf("%s: spec name field %q mismatched", name, s.Name)
		}
		if len(s.Phases) == 0 {
			t.Errorf("%s: no phases", name)
			continue
		}
		for i := range s.Phases {
			if p := &s.Phases[i]; !p.Length.IsConst() || !p.Profile.Chains.IsConst() {
				t.Errorf("%s/%s: length and chains must be constants", name, p.Name)
			}
		}
		gen, err := Compile(s, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, ph := range gen.(*engine).prog.phases {
			k := ph.Kernel
			ctx := name + "/" + ph.Name
			if ph.Length <= 0 {
				t.Errorf("%s: non-positive phase length", ctx)
			}
			if k.Chains < 1 {
				t.Errorf("%s: chains %d", ctx, k.Chains)
			}
			if k.Chains > 64 {
				t.Errorf("%s: chains %d beyond plausible rename width", ctx, k.Chains)
			}
			if sum := k.LoadFrac + k.StoreFrac + k.BranchFrac; sum >= 0.9 {
				t.Errorf("%s: class fractions sum to %.2f, leaving no arithmetic", ctx, sum)
			}
			for _, f := range []struct {
				n string
				v float64
			}{
				{"LoadFrac", k.LoadFrac}, {"StoreFrac", k.StoreFrac},
				{"BranchFrac", k.BranchFrac}, {"MultFrac", k.MultFrac},
				{"CrossFrac", k.CrossFrac}, {"FreshFrac", k.FreshFrac},
				{"RandBranchFrac", k.RandBranchFrac}, {"RandTakenProb", k.RandTakenProb},
				{"AddrDepFrac", k.AddrDepFrac},
			} {
				if f.v < 0 || f.v > 1 {
					t.Errorf("%s: %s = %f out of [0,1]", ctx, f.n, f.v)
				}
			}
			if k.LoopBody < 4 || k.LoopBody > 1024 {
				t.Errorf("%s: LoopBody %d out of range", ctx, k.LoopBody)
			}
			if k.LoopIters < 2 {
				t.Errorf("%s: LoopIters %d", ctx, k.LoopIters)
			}
			if k.IterJitter >= k.LoopIters {
				t.Errorf("%s: jitter %d >= iters %d", ctx, k.IterJitter, k.LoopIters)
			}
			if !k.RandomAddr && k.Stride <= 0 {
				t.Errorf("%s: strided kernel with stride %d", ctx, k.Stride)
			}
			if k.Footprint <= 0 {
				t.Errorf("%s: footprint %d", ctx, k.Footprint)
			}
			if k.Chase && !k.RandomAddr {
				t.Errorf("%s: chase without random addressing", ctx)
			}
			if k.StaticBlocks < 1 {
				t.Errorf("%s: static blocks %d", ctx, k.StaticBlocks)
			}
			if k.CallEvery > 0 && k.Funcs < 1 {
				t.Errorf("%s: calls configured without functions", ctx)
			}
			// A block must fit its PC region.
			if k.LoopBody*4+16 >= blockStride {
				t.Errorf("%s: block overflows its PC region", ctx)
			}
		}
	}
}

// TestPaperDataSane validates the published-characteristics table.
func TestPaperDataSane(t *testing.T) {
	for _, name := range sortedKeys(paperData) {
		pd := paperData[name]
		if pd.Suite == "" {
			t.Errorf("%s: empty suite", name)
		}
		if pd.BaseIPC <= 0 || pd.BaseIPC > 8 {
			t.Errorf("%s: base IPC %f", name, pd.BaseIPC)
		}
		if pd.MispredictInterval < 10 {
			t.Errorf("%s: mispredict interval %f", name, pd.MispredictInterval)
		}
		if pd.MinStableInterval < 10_000 {
			t.Errorf("%s: min stable interval %f", name, pd.MinStableInterval)
		}
		if pd.InstabilityAt10K < 0 || pd.InstabilityAt10K > 100 {
			t.Errorf("%s: instability %f", name, pd.InstabilityAt10K)
		}
	}
}
