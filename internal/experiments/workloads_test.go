package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/spec"
)

// loadThrashSpec pulls the checked-in stressor, the non-builtin workload
// the sweep tests bind.
func loadThrashSpec(t *testing.T) *spec.Spec {
	t.Helper()
	s, err := spec.LoadFile(filepath.Join("..", "..", "specs", "phase-thrash.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testOpts is a small sweep: two built-ins plus the thrash spec, minimum
// windows (Scale tiny → 50K floor).
func testOpts(t *testing.T) Options {
	return Options{
		Seed: 1, Scale: 0.001,
		Benchmarks: []string{"gzip", "swim", "phase-thrash"},
		Specs:      map[string]*spec.Spec{"phase-thrash": loadThrashSpec(t)},
	}
}

func TestBenchmarksIncludesSpecs(t *testing.T) {
	o := Options{Specs: map[string]*spec.Spec{"zeta": nil, "alpha": nil, "gzip": nil}}
	got := o.benchmarks()
	// Built-ins first, then non-builtin spec names sorted; a spec shadowing
	// a built-in name must not duplicate the entry.
	counts := map[string]int{}
	for _, b := range got {
		counts[b]++
	}
	if counts["gzip"] != 1 || counts["alpha"] != 1 || counts["zeta"] != 1 {
		t.Fatalf("benchmark set %v", got)
	}
	if got[len(got)-2] != "alpha" || got[len(got)-1] != "zeta" {
		t.Fatalf("spec names not appended in sorted order: %v", got)
	}
}

func TestRecordTracesAndReplaySweep(t *testing.T) {
	dir := t.TempDir()
	o := testOpts(t)

	n, err := RecordTraces(o, dir, 0)
	if err != nil {
		t.Fatalf("RecordTraces: %v", err)
	}
	if n != 3 {
		t.Fatalf("recorded %d traces, want 3", n)
	}
	for _, bench := range o.benchmarks() {
		if _, err := os.Stat(TraceFileName(dir, bench, 1)); err != nil {
			t.Errorf("missing trace for %s: %v", bench, err)
		}
	}

	// Live arm: built-ins generated, phase-thrash spec-compiled.
	build := func(o Options) []runner.Request {
		var reqs []runner.Request
		for _, bench := range o.benchmarks() {
			reqs = append(reqs, o.request("replay-equiv", bench, pipeline.DefaultConfig(), nil, o.Window(bench)))
		}
		return reqs
	}
	liveReqs := build(o)
	live, err := runner.New(2).RunAll(liveReqs)
	if err != nil {
		t.Fatal(err)
	}

	// Replay arm: same cells, streams served from the recorded files.
	ro := o
	ro.Replay = OpenTraceDir(dir)
	replayReqs := build(ro)
	replayed, err := runner.New(2).RunAll(replayReqs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range live {
		if live[i] != replayed[i] {
			t.Errorf("%s: replayed Result diverges from live:\n  live:   %+v\n  replay: %+v",
				liveReqs[i].Bench, live[i], replayed[i])
		}
	}

	// Identity plumbing: spec cells carry spec-fingerprint keys, replayed
	// cells trace-fingerprint keys; all are cacheable.
	for i, q := range liveReqs {
		switch q.Bench {
		case "phase-thrash":
			if !strings.HasPrefix(q.SourceKey, "spec:") {
				t.Errorf("live spec cell SourceKey = %q, want spec:<fp>", q.SourceKey)
			}
		default:
			if q.SourceKey != "" || q.Source != nil {
				t.Errorf("live built-in cell %d unexpectedly bound a source", i)
			}
		}
	}
	for _, q := range replayReqs {
		if !strings.HasPrefix(q.SourceKey, "trace:") {
			t.Errorf("replayed cell %s SourceKey = %q, want trace:<fp>", q.Bench, q.SourceKey)
		}
		if q.NoCache {
			t.Errorf("replayed cell %s lost cacheability", q.Bench)
		}
	}
}

// TestRecordTracesServeTable4 records at one scale and replays table4, the
// driver with the longest window, at the same scale: every run must replay
// and the tables must print exactly as the live run's.
func TestRecordTracesServeTable4(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"gzip", "swim"}}
	if _, err := RecordTraces(o, dir, 0); err != nil {
		t.Fatalf("RecordTraces: %v", err)
	}
	live, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	ro := o
	ro.Replay = OpenTraceDir(dir)
	replayed, err := Table4(ro)
	if err != nil {
		t.Fatalf("replayed table4: %v", err)
	}
	if len(replayed) != len(live) {
		t.Fatalf("replay printed %d tables, live %d", len(replayed), len(live))
	}
	for i := range live {
		if got, want := replayed[i].Format(), live[i].Format(); got != want {
			t.Errorf("replayed %s differs from live:\n%s\nwant:\n%s", live[i].ID, got, want)
		}
	}
}

func TestReplayMissingTraceFails(t *testing.T) {
	o := testOpts(t)
	o.Replay = OpenTraceDir(t.TempDir()) // empty: no recordings
	q := o.request("missing", "gzip", pipeline.DefaultConfig(), nil, o.Window("gzip"))
	if !q.NoCache {
		t.Fatalf("unreadable trace must leave the request uncacheable")
	}
	_, err := runner.New(1).RunAll([]runner.Request{q})
	var se *runner.SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one-failure SweepError, got %v", err)
	}
}

// TestReplayRejectsWrongWorkload: a trace recorded for one workload must
// not satisfy a request for another, even at the same path.
func TestReplayRejectsWrongWorkload(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"gzip"}}
	if _, err := RecordTraces(o, dir, 0); err != nil {
		t.Fatal(err)
	}
	// Masquerade gzip's recording as swim's.
	if err := os.Rename(TraceFileName(dir, "gzip", 1), TraceFileName(dir, "swim", 1)); err != nil {
		t.Fatal(err)
	}
	ro := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"swim"}, Replay: OpenTraceDir(dir)}
	q := ro.request("wrong", "swim", pipeline.DefaultConfig(), nil, ro.Window("swim"))
	_, err := runner.New(1).RunAll([]runner.Request{q})
	var se *runner.SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one-failure SweepError, got %v", err)
	}
	if msg := se.Failures[0].Err.Error(); !strings.Contains(msg, "source") {
		t.Fatalf("failure does not name the identity mismatch: %v", msg)
	}
}

// TestTraceCacheSharesLoads: N requests over one file read it once.
func TestTraceCacheSharesLoads(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"gzip"}}
	if _, err := RecordTraces(o, dir, 0); err != nil {
		t.Fatal(err)
	}
	traces := OpenTraceDir(dir)
	path := TraceFileName(dir, "gzip", 1)
	t1, err := traces.load(path)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := traces.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("trace dir returned distinct trace copies for one path")
	}
}
