package spec_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/smt"
	"clustersim/internal/spec"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// specsDir is the checked-in spec directory at the repository root.
const specsDir = "../../specs"

const oracleSeed = 1

// policies is the controller matrix the byte-identity oracles sweep.
var policies = []struct {
	name string
	mk   func() pipeline.Controller
}{
	{"static", func() pipeline.Controller { return nil }},
	{"explore", func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }},
	{"dilp", func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{}) }},
	{"fg", func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
}

func runGen(t *testing.T, gen workload.Generator, mkCtrl func() pipeline.Controller, window uint64) pipeline.Result {
	t.Helper()
	p, err := pipeline.New(pipeline.DefaultConfig(), gen, mkCtrl())
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	res, err := p.Run(window)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// digestWindow is the length of the pinned-digest runs: long enough to
// cross every benchmark's short phases several times.
const digestWindow = 60_000

// digestSeeds are the seeds whose Results are pinned: the development seed
// and a held-out one.
var digestSeeds = []uint64{1, 97}

// digestsFile pins, for every benchmark, policy and digest seed, the
// digest of the full simulated Result of a digestWindow run.
const digestsFile = "testdata/oracle_digests.txt"

// resultDigest hashes every field of a Result, names included, so any
// change to the simulated statistics changes the digest.
func resultDigest(t *testing.T, r pipeline.Result) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal Result: %v", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadDigests reads digestsFile into a "bench policy seed" → digest map.
func loadDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 4 {
			t.Fatalf("%s: malformed line %q", digestsFile, line)
		}
		pins[strings.Join(f[:3], " ")] = f[3]
	}
	return pins
}

// TestSpecOracle pins the nine benchmarks' simulated behaviour. For every
// benchmark, policy and digest seed, the full Result of a run from
// workload.New, which compiles the checked-in spec, must match the digest
// checked in under testdata/ (-update rewrites the table; a changed digest
// means the benchmarks or the simulator changed, which must be deliberate,
// and a change that adds a Result field changes every digest). A trace
// recorded from the generator must replay to the same Result again.
func TestSpecOracle(t *testing.T) {
	var pins map[string]string
	if !*update {
		pins = loadDigests(t)
	}
	var table strings.Builder
	table.WriteString("# bench policy seed digest: Result digests pinned by TestSpecOracle (-update rewrites)\n")
	cells := 0
	for _, bench := range workload.Benchmarks() {
		for _, pol := range policies {
			t.Run(bench+"/"+pol.name, func(t *testing.T) {
				for _, seed := range digestSeeds {
					live := runGen(t, workload.MustNew(bench, seed), pol.mk, digestWindow)
					key := fmt.Sprintf("%s %s %d", bench, pol.name, seed)
					got := resultDigest(t, live)
					fmt.Fprintf(&table, "%s %s\n", key, got)
					cells++
					if !*update && got != pins[key] {
						t.Errorf("%s: Result digest %s, pinned %s:\n  %+v", key, got, pins[key], live)
					}

					tr := trace.Record(workload.MustNew(bench, seed), digestWindow+trace.DefaultHeadroom, trace.Meta{
						Name: bench, SourceKind: trace.SourceBench, SourceID: bench, Seed: seed,
					})
					if replayed := runGen(t, tr.Replayer(), pol.mk, digestWindow); replayed != live {
						t.Errorf("seed %d: replayed run diverges from live generation:\n  live:   %+v\n  replay: %+v", seed, live, replayed)
					}
				}
			})
		}
	}
	if *update {
		if want := len(workload.Benchmarks()) * len(policies) * len(digestSeeds); cells != want {
			t.Fatalf("-update ran %d of %d cells; rerun without a -run filter below TestSpecOracle", cells, want)
		}
		if err := os.WriteFile(digestsFile, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestThrashSpecOracle runs the adversarial phase-thrashing stressor:
// phase lengths sampled near the controllers' decision interval, so
// policies reconfigure constantly. Record → replay must still be
// byte-identical under every policy.
func TestThrashSpecOracle(t *testing.T) {
	s, err := spec.LoadFile(filepath.Join(specsDir, "phase-thrash.json"))
	if err != nil {
		t.Fatal(err)
	}
	const window = 60_000
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			liveGen, err := workload.Compile(s, oracleSeed)
			if err != nil {
				t.Fatal(err)
			}
			live := runGen(t, liveGen, pol.mk, window)
			if live.Instructions < window {
				t.Fatalf("thrash run committed only %d of %d", live.Instructions, window)
			}

			recGen, err := workload.Compile(s, oracleSeed)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Record(recGen, window+trace.DefaultHeadroom, trace.Meta{
				Name: s.Name, SourceKind: trace.SourceSpec, SourceID: s.Name, Seed: oracleSeed,
			})
			replayed := runGen(t, tr.Replayer(), pol.mk, window)
			if live != replayed {
				t.Errorf("replayed thrash run diverges:\n  live:   %+v\n  replay: %+v", live, replayed)
			}
		})
	}
}

// TestSMTMixSpecOracle compiles the checked-in multi-programmed mix, runs
// it through the SMT co-schedule live, then replays every thread from a
// recording and demands an identical Report.
func TestSMTMixSpecOracle(t *testing.T) {
	s, err := spec.LoadFile(filepath.Join(specsDir, "smt-mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	const (
		epochs      = 6
		epochCycles = 2_000
		total       = 16
	)
	run := func(threads []smt.Thread) smt.Report {
		t.Helper()
		sys, err := smt.New(pipeline.DefaultConfig(), threads, total, smt.DistantILPPartition{})
		if err != nil {
			t.Fatalf("smt.New: %v", err)
		}
		rep, err := sys.Run(epochs, epochCycles)
		if err != nil {
			t.Fatalf("smt.Run: %v", err)
		}
		return rep
	}

	liveThreads, err := workload.CompileMix(s, oracleSeed)
	if err != nil {
		t.Fatal(err)
	}
	var threads []smt.Thread
	for _, th := range liveThreads {
		threads = append(threads, smt.Thread{Bench: th.Name, Seed: th.Seed, Gen: th.Gen})
	}
	live := run(threads)

	// Replay arm: record each thread's stream from a fresh compile, then
	// feed replayers instead of live generators. An SMT epoch can fetch at
	// most epochs*epochCycles*FetchWidth instructions; headroom on top.
	recThreads, err := workload.CompileMix(s, oracleSeed)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(epochs*epochCycles)*uint64(pipeline.DefaultConfig().FetchWidth) + trace.DefaultHeadroom
	var replayThreads []smt.Thread
	for _, th := range recThreads {
		tr := trace.Record(th.Gen, budget, trace.Meta{
			Name: th.Name, SourceKind: trace.SourceCustom, SourceID: th.Name, Seed: th.Seed,
		})
		replayThreads = append(replayThreads, smt.Thread{Bench: th.Name, Seed: th.Seed, Gen: tr.Replayer()})
	}
	replayed := run(replayThreads)

	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("replayed SMT mix diverges from live co-schedule:\n  live:   %+v\n  replay: %+v", live, replayed)
	}
}
