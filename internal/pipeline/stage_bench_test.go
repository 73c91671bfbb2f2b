package pipeline_test

import (
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// Per-stage microbenchmarks: stage-level regressions show up directly in
// `go test -bench`, not only in sampled PhaseTimer attribution data. Each
// stage benchmark runs the whole machine with a period-1 phase timer (every
// cycle sampled stage-by-stage) and reports the named stage's wall time per
// stepped cycle and per committed instruction; the event/legacy
// sub-benchmarks make the hot-loop win — and any future regression —
// visible per stage.
//
// Two machines: "static16" is gzip on the Table 1 machine with all 16
// clusters active; "int16-live" is perfbench's communication-bound cell, vpr
// on the same 16-cluster ring with the centralized cache under the
// fine-grained (fg-branch) controller, so the active set moves. The work is
// fixed: every op simulates stageOp instructions of one warmed-up machine.

// stageOp is the work of one benchmark op, in committed instructions.
const stageOp = 2_000

type stageMachine struct {
	name  string
	bench string
	ctrl  func() pipeline.Controller
}

var stageMachines = []stageMachine{
	{"static16", "gzip", func() pipeline.Controller { return nil }},
	{"int16-live", "vpr", func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
}

func benchStageNanos(b *testing.B, phase telemetry.Phase, m stageMachine, legacy bool) {
	pt := telemetry.NewPhaseTimer(1)
	cfg := pipeline.DefaultConfig()
	cfg.Phases = pt
	cfg.LegacyStepper = legacy
	p := pipeline.MustNew(cfg, workload.MustNew(m.bench, 1), m.ctrl())
	run := func(n uint64) {
		if _, err := p.Run(n); err != nil {
			b.Fatal(err)
		}
	}
	run(20_000) // reach steady state before measuring
	before := pt.Report()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(stageOp)
	}
	b.StopTimer()
	after := pt.Report()
	for i := range after.Phases {
		if after.Phases[i].Phase == phase.String() {
			nanos := after.Phases[i].Nanos - before.Phases[i].Nanos
			laps := after.Phases[i].Laps - before.Phases[i].Laps
			if laps > 0 {
				b.ReportMetric(float64(nanos)/float64(laps), "ns/cycle")
			}
			// Per instruction is the cross-stepper figure: the event
			// stepper steps fewer, busier cycles (it skips idle ones).
			b.ReportMetric(float64(nanos)/float64(b.N*stageOp), "ns/instr")
		}
	}
}

// benchStage runs one stage's benchmark on every machine under both
// steppers.
func benchStage(b *testing.B, phase telemetry.Phase) {
	for _, m := range stageMachines {
		b.Run(m.name+"/event", func(b *testing.B) { benchStageNanos(b, phase, m, false) })
		b.Run(m.name+"/legacy", func(b *testing.B) { benchStageNanos(b, phase, m, true) })
	}
}

// BenchmarkIssueStage: the stage the event engine restructured — the legacy
// variant pays the full per-cycle IQ scan, the event variant only touches
// woken instructions.
func BenchmarkIssueStage(b *testing.B) { benchStage(b, telemetry.PhaseIssue) }

// BenchmarkDispatchStage: steering plus queue insertion. Steering reads the
// incremental steering view (steer.go), O(votes) per instruction.
func BenchmarkDispatchStage(b *testing.B) { benchStage(b, telemetry.PhaseDispatch) }

// BenchmarkMemStage: store-dummy dissolution and load ordering (lsq.go):
// parked loads cost nothing until their wake cycle, and an attempt walks
// each older store at most once per load.
func BenchmarkMemStage(b *testing.B) { benchStage(b, telemetry.PhaseMem) }
