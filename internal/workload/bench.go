package workload

import (
	"fmt"
	"sync"

	"clustersim/internal/spec"
	"clustersim/specs"
)

// paperData holds the published numbers the nine benchmark specs target,
// one per program in the paper's Table 3. Each spec's kernel parameters
// are calibrated (see TestCalibrationSweep in internal/pipeline) against
// these characteristics: chains sets the ILP class, loop_iters and
// rand_branch_frac set the branch-mispredict interval, footprint,
// random_addr and chase set memory behaviour, addr_dep_frac sets how much
// of the memory latency lands on the critical path, and the phase list
// reproduces the program's Table 4 phase structure (lengths scaled ~10x
// down to match our shorter simulation windows). Each spec's doc field
// records its program's calibration.
var paperData = map[string]PaperData{
	"cjpeg":  {Suite: "Mediabench", BaseIPC: 2.06, MispredictInterval: 82, MinStableInterval: 40e3, InstabilityAt10K: 9, PrefersWide: false},
	"crafty": {Suite: "SPEC2k Int", BaseIPC: 1.85, MispredictInterval: 118, MinStableInterval: 320e3, InstabilityAt10K: 30, PrefersWide: false},
	"djpeg":  {Suite: "Mediabench", BaseIPC: 4.07, MispredictInterval: 249, MinStableInterval: 1.28e6, InstabilityAt10K: 31, PrefersWide: true},
	"galgel": {Suite: "SPEC2k FP", BaseIPC: 3.43, MispredictInterval: 88, MinStableInterval: 10e3, InstabilityAt10K: 1, PrefersWide: true},
	"gzip":   {Suite: "SPEC2k Int", BaseIPC: 1.83, MispredictInterval: 87, MinStableInterval: 10e3, InstabilityAt10K: 4, PrefersWide: false},
	"mgrid":  {Suite: "SPEC2k FP", BaseIPC: 2.28, MispredictInterval: 8977, MinStableInterval: 10e3, InstabilityAt10K: 0, PrefersWide: true},
	"parser": {Suite: "SPEC2k Int", BaseIPC: 1.42, MispredictInterval: 88, MinStableInterval: 40e6, InstabilityAt10K: 12, PrefersWide: false},
	"swim":   {Suite: "SPEC2k FP", BaseIPC: 1.67, MispredictInterval: 22600, MinStableInterval: 10e3, InstabilityAt10K: 0, PrefersWide: true},
	"vpr":    {Suite: "SPEC2k Int", BaseIPC: 1.20, MispredictInterval: 171, MinStableInterval: 320e3, InstabilityAt10K: 14, PrefersWide: false},
}

// builtins parses the embedded benchmark specs, once per process.
var builtins = sync.OnceValues(func() (map[string]*spec.Spec, error) {
	m := make(map[string]*spec.Spec, len(paperData))
	for _, name := range Benchmarks() {
		data, err := specs.FS.ReadFile(name + ".json")
		if err != nil {
			return nil, fmt.Errorf("workload: benchmark %s: %w", name, err)
		}
		s, err := spec.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("workload: benchmark %s: %w", name, err)
		}
		m[name] = s
	}
	return m, nil
})
