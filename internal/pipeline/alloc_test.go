package pipeline

import (
	"testing"

	"clustersim/internal/workload"
)

// steadyStateAllocBudget is each benchmark's allocation budget per
// steady-state 10K-instruction window, under either stepper: its measured
// count when the budget was set. A window allocates only for the occasional
// scratch-slice regrow; before the in-place fetch fill it allocated
// ~10,000 times, one escaping isa.Instruction per fetch.
var steadyStateAllocBudget = map[string]float64{
	"cjpeg": 1, "crafty": 1, "djpeg": 1, "galgel": 1, "gzip": 2,
	"mgrid": 1, "parser": 1, "swim": 1, "vpr": 1,
}

// TestSteadyStateAllocBudget pins the per-window allocation count of the
// simulation hot loop on every benchmark under both steppers. The work is
// fixed (50K instructions of warm-up, then 10K-instruction windows), so the
// count does not depend on host speed. The race detector's instrumentation
// moves the counts, so a race build checks raceAllocBudget instead.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is slow under -short")
	}
	for _, legacy := range []bool{false, true} {
		for _, bench := range workload.Benchmarks() {
			budget, ok := steadyStateAllocBudget[bench]
			if !ok {
				t.Fatalf("%s has no allocation budget", bench)
			}
			if raceAllocBudget > 0 {
				budget = raceAllocBudget
			}
			gen, err := workload.New(bench, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.LegacyStepper = legacy
			p, err := New(cfg, gen, nil)
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, p, 50_000) // reach steady state: scratch slices at working size
			avg := testing.AllocsPerRun(10, func() {
				mustRun(t, p, 10_000)
			})
			if avg > budget {
				t.Errorf("%s (legacy stepper %v): %.0f allocs per 10K-instruction window, budget %.0f",
					bench, legacy, avg, budget)
			}
		}
	}
}
