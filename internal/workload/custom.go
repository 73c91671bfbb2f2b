package workload

import "fmt"

// Custom builds a generator for an ad-hoc synthetic program. It is the
// engine behind the named benchmarks and compiled specs, exposed so tests
// and fuzz targets can explore generator parameters the bundled programs
// never exercise. Fractions outside [0,1] are clamped. The same (phases,
// seed) pair always yields the identical stream.
func Custom(name string, phases []Phase, seed uint64) (Generator, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: custom program needs a name")
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: custom program %q needs at least one phase", name)
	}
	p := program{name: name, phases: make([]Phase, len(phases))}
	for i, ph := range phases {
		if ph.Length < 1 {
			return nil, fmt.Errorf("workload: %s phase %d: Length must be >= 1, got %d", name, i, ph.Length)
		}
		if ph.Kernel.Chains < 1 {
			return nil, fmt.Errorf("workload: %s phase %d: Chains must be >= 1, got %d", name, i, ph.Kernel.Chains)
		}
		k := &ph.Kernel
		for _, f := range []*float64{
			&k.LoadFrac, &k.StoreFrac, &k.BranchFrac, &k.MultFrac, &k.CrossFrac,
			&k.FreshFrac, &k.RandBranchFrac, &k.RandTakenProb, &k.AddrDepFrac,
		} {
			*f = clamp01(*f)
		}
		if ph.Name == "" {
			ph.Name = fmt.Sprintf("phase%d", i)
		}
		p.phases[i] = ph
	}
	return newEngine(p, seed), nil
}

func clamp01(f float64) float64 {
	switch {
	case f < 0 || f != f: // negative or NaN
		return 0
	case f > 1:
		return 1
	}
	return f
}
