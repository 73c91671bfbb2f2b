package pipeline

import (
	"testing"

	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// TestPhaseTimerPreservesResults: a processor with a phase timer attached
// must produce bit-identical results — the timer observes the simulator,
// never the simulation.
func TestPhaseTimerPreservesResults(t *testing.T) {
	run := func(pt *telemetry.PhaseTimer) Result {
		cfg := DefaultConfig()
		cfg.Phases = pt
		p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
		res, err := p.Run(50_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	timed := run(telemetry.NewPhaseTimer(1)) // sample every cycle
	if plain != timed {
		t.Fatalf("phase timer perturbed results:\nplain: %+v\ntimed: %+v", plain, timed)
	}
}

// TestPhaseTimerAttribution: a sampled run charges every pipeline phase.
func TestPhaseTimerAttribution(t *testing.T) {
	pt := telemetry.NewPhaseTimer(4)
	cfg := DefaultConfig()
	cfg.Phases = pt
	// The sampled == cycles/period identity only holds when every cycle is
	// stepped; the event stepper's stall fast-forward skips cycles. The
	// timer mechanics under test are stepper-independent.
	cfg.LegacyStepper = true
	p := MustNew(cfg, workload.MustNew("swim", 1), nil)
	if _, err := p.Run(20_000); err != nil {
		t.Fatal(err)
	}
	r := pt.Report()
	if r.SampledCycles == 0 {
		t.Fatal("no cycles sampled")
	}
	want := p.Cycle() / r.Period
	if r.SampledCycles < want || r.SampledCycles > want+1 {
		t.Errorf("sampled %d cycles over %d at period %d, want ~%d",
			r.SampledCycles, p.Cycle(), r.Period, want)
	}
	for _, s := range r.Phases {
		if s.Laps != r.SampledCycles {
			t.Errorf("phase %s lapped %d times, want %d", s.Phase, s.Laps, r.SampledCycles)
		}
	}
	if r.TotalNanos <= 0 {
		t.Error("no time attributed")
	}
}

// TestPhaseTimerSharedAcrossRuns: one timer aggregates several processors
// (the sweep-wide usage; counters are atomic).
func TestPhaseTimerSharedAcrossRuns(t *testing.T) {
	pt := telemetry.NewPhaseTimer(16)
	for _, bench := range []string{"gzip", "vpr"} {
		cfg := DefaultConfig()
		cfg.Phases = pt
		p := MustNew(cfg, workload.MustNew(bench, 1), nil)
		if _, err := p.Run(10_000); err != nil {
			t.Fatal(err)
		}
	}
	if pt.Report().SampledCycles == 0 {
		t.Fatal("shared timer sampled nothing")
	}
}

// TestPhaseTimerExcludedFromFingerprint: attaching a timer must not change
// the configuration fingerprint (its pointer address is nondeterministic,
// and the timer does not influence timing), so checkpoints and cache keys
// stay stable across instrumented and plain builds.
func TestPhaseTimerExcludedFromFingerprint(t *testing.T) {
	plain := DefaultConfig()
	timed := DefaultConfig()
	timed.Phases = telemetry.NewPhaseTimer(0)
	if plain.Fingerprint() != timed.Fingerprint() {
		t.Fatal("Phases leaked into Config.Fingerprint")
	}
}

// TestPhaseTimerCheckpointable: phase-timed runs stay checkpointable —
// unlike observer/checker runs, the timer holds no per-run state.
func TestPhaseTimerCheckpointable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Phases = telemetry.NewPhaseTimer(0)
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	if err := p.Checkpointable(); err != nil {
		t.Fatalf("phase-timed run not checkpointable: %v", err)
	}
}

// BenchmarkStepNoPhaseTimer is the hot path with attribution disabled: the
// only cost over the pre-telemetry step is one pointer test per cycle,
// measured within the ≤2% disabled-overhead budget (history in
// docs/PERFORMANCE.md).
func BenchmarkStepNoPhaseTimer(b *testing.B) {
	benchPhaseSteps(b, nil)
}

// BenchmarkStepPhaseTimer measures the enabled path at the default sampling
// period (1 cycle in 64 timed).
func BenchmarkStepPhaseTimer(b *testing.B) {
	benchPhaseSteps(b, telemetry.NewPhaseTimer(0))
}

func benchPhaseSteps(b *testing.B, pt *telemetry.PhaseTimer) {
	cfg := DefaultConfig()
	cfg.Phases = pt
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	mustRun(b, p, uint64(b.N))
}
