//go:build !race

package pipeline

// raceAllocBudget is 0 without the race detector: the per-benchmark
// budgets apply (see race_test.go).
const raceAllocBudget = 0
