package pipeline

import (
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/workload"
)

// stepCtrl flips between two cluster counts every interval so observer
// tests exercise real reconfigurations without importing internal/core
// (which would cycle).
type stepCtrl struct {
	n      uint64
	obs    *obs.Observer
	narrow bool
}

func (s *stepCtrl) Name() string                   { return "step-ctrl" }
func (s *stepCtrl) Reset(total int)                { s.n, s.narrow = 0, false }
func (s *stepCtrl) AttachObserver(o *obs.Observer) { s.obs = o }
func (s *stepCtrl) OnCommit(ev CommitEvent) int {
	s.n++
	if s.n%5_000 == 0 {
		s.narrow = !s.narrow
	}
	if s.narrow {
		return 4
	}
	return 16
}

func TestObserverCountersMatchResult(t *testing.T) {
	ring := obs.NewRingSink(1 << 16)
	ob := &obs.Observer{
		Registry:     obs.NewRegistry(),
		Tracer:       ring,
		SamplePeriod: 1_000,
		Series:       &obs.TimeSeries{},
	}
	cfg := DefaultConfig()
	cfg.Observer = ob
	p := MustNew(cfg, workload.MustNew("gzip", 1), &stepCtrl{})
	res := mustRun(t, p, 60_000)

	snap := ob.Registry.Snapshot()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"pipeline.cycles", res.Cycles},
		{"pipeline.instructions", res.Instructions},
		{"pipeline.fetched", res.Fetched},
		{"pipeline.dispatched", res.Dispatched},
		{"pipeline.redirects", res.Redirects},
		{"pipeline.reconfigs", res.Reconfigs},
		{"pipeline.distant_issued", res.DistantIssued},
		{"pipeline.distant_committed", res.DistantCommitted},
		{"pipeline.reg_transfers", res.RegTransfers},
		{"mem.l1_hits", res.Mem.L1Hits},
		{"mem.l1_misses", res.Mem.L1Misses},
		{"net.transfers", res.Net.Transfers},
		{"net.hops", res.Net.Hops},
	} {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("counter %s = %d, Result says %d", c.name, got, c.want)
		}
	}

	if res.Reconfigs == 0 {
		t.Fatal("step controller produced no reconfigurations")
	}
	var reconfigs, samples int
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obs.KindReconfig:
			reconfigs++
			if ev.OldActive == ev.NewActive {
				t.Fatalf("no-op reconfig event: %+v", ev)
			}
			if ev.Policy != "step-ctrl" {
				t.Fatalf("reconfig policy %q", ev.Policy)
			}
		case obs.KindSample:
			samples++
		}
	}
	if uint64(reconfigs) != res.Reconfigs {
		t.Errorf("traced %d reconfig events, Result says %d", reconfigs, res.Reconfigs)
	}
	if samples == 0 {
		t.Error("no probe samples despite SamplePeriod")
	}
	if rows := ob.Series.Rows(); len(rows) != samples {
		t.Errorf("series has %d rows, traced %d samples", len(rows), samples)
	} else {
		last := rows[len(rows)-1]
		if last.Cycle == 0 || last.Instructions == 0 {
			t.Errorf("empty series row: %+v", last)
		}
	}
}

func TestObserverAttachReachesController(t *testing.T) {
	ob := &obs.Observer{Registry: obs.NewRegistry()}
	cfg := DefaultConfig()
	cfg.Observer = ob
	ctrl := &stepCtrl{}
	MustNew(cfg, workload.MustNew("gzip", 1), ctrl)
	if ctrl.obs != ob {
		t.Fatal("ObserverAware controller was not attached")
	}
	// Without an observer, no attach happens.
	ctrl2 := &stepCtrl{}
	MustNew(DefaultConfig(), workload.MustNew("gzip", 1), ctrl2)
	if ctrl2.obs != nil {
		t.Fatal("controller attached without an observer")
	}
}

func TestDisabledObserverIsIgnored(t *testing.T) {
	// An Observer with no registry and no tracer is treated as absent.
	cfg := DefaultConfig()
	cfg.Observer = &obs.Observer{SamplePeriod: 100}
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	if p.obs != nil {
		t.Fatal("disabled observer retained")
	}
	mustRun(t, p, 5_000)
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Instructions: 2_000_000, DistantCommitted: 500_000, Reconfigs: 30}
	if got := r.DistantILPFraction(); got != 0.25 {
		t.Fatalf("DistantILPFraction %f", got)
	}
	if got := r.ReconfigsPerMInstr(); got != 15 {
		t.Fatalf("ReconfigsPerMInstr %f", got)
	}
	var zero Result
	if zero.DistantILPFraction() != 0 || zero.ReconfigsPerMInstr() != 0 {
		t.Fatal("zero Result derived metrics")
	}
}

// BenchmarkStepNoObserver is the baseline hot path with the observer hooks
// disabled. Against the pre-instrumentation baseline it was measured
// within 2%, so the hooks are perf-neutral when off (history in
// docs/PERFORMANCE.md), and it must report zero allocations per step.
func BenchmarkStepNoObserver(b *testing.B) {
	benchSteps(b, nil)
}

// BenchmarkStepObserverSampling measures the enabled path with a registry,
// ring tracer and 10K-cycle sampling (the default experiment setting).
func BenchmarkStepObserverSampling(b *testing.B) {
	benchSteps(b, &obs.Observer{
		Registry:     obs.NewRegistry(),
		Tracer:       obs.NewRingSink(4096),
		SamplePeriod: 10_000,
	})
}

func benchSteps(b *testing.B, ob *obs.Observer) {
	cfg := DefaultConfig()
	cfg.Observer = ob
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	mustRun(b, p, uint64(b.N))
}

// TestSnapshotResultEquivalence: every counter the observer exports must
// equal the corresponding Result field after Stats() (which syncs the
// registry), so dashboards fed from snapshots and analyses fed from Results
// can never disagree.
func TestSnapshotResultEquivalence(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Observer = &obs.Observer{Registry: reg}
	gen := workload.MustNew("swim", 3)
	p, err := New(cfg, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, p, 20_000)
	res := p.Stats() // syncs registry counters to the cumulative totals
	snap := reg.Snapshot()

	equiv := []struct {
		counter string
		want    uint64
	}{
		{"pipeline.cycles", res.Cycles},
		{"pipeline.instructions", res.Instructions},
		{"pipeline.fetched", res.Fetched},
		{"pipeline.dispatched", res.Dispatched},
		{"pipeline.redirects", res.Redirects},
		{"pipeline.reconfigs", res.Reconfigs},
		{"pipeline.distant_issued", res.DistantIssued},
		{"pipeline.distant_committed", res.DistantCommitted},
		{"pipeline.reg_transfers", res.RegTransfers},
		{"mem.l1_hits", res.Mem.L1Hits},
		{"mem.l1_misses", res.Mem.L1Misses},
		{"net.transfers", res.Net.Transfers},
		{"net.hops", res.Net.Hops},
	}
	for _, e := range equiv {
		got, ok := snap.Counters[e.counter]
		if !ok {
			t.Errorf("snapshot missing counter %q", e.counter)
			continue
		}
		if got != e.want {
			t.Errorf("%s = %d, Result says %d", e.counter, got, e.want)
		}
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}
