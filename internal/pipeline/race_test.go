//go:build race

package pipeline

// raceAllocBudget replaces TestSteadyStateAllocBudget's per-benchmark
// budgets under the race detector, whose instrumentation allocates: counts
// of 1-3 per window have been measured there.
const raceAllocBudget = 8
