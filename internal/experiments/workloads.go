package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"clustersim/internal/runner"
	"clustersim/internal/spec"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// This file binds declarative-spec and trace-replay workloads into the
// sweep cells Options.request builds. Both are content-addressed: a spec
// run's cache key carries the spec fingerprint, a replayed run's the trace
// file's content fingerprint, so persisted results from internal/runner
// can never be served across workload edits (the fingerprint changes with
// the content, never with the path).

// TraceFileName is the per-workload trace path convention shared by
// RecordTraces and replayed sweeps: <dir>/<bench>-seed<seed>.trace.
func TraceFileName(dir, bench string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace", bench, seed))
}

// TraceDir is a directory of recorded traces, named by TraceFileName, that a
// sweep replays instead of generating its workloads live. Each file is read
// once and the loaded trace shared by every cell that replays it: replayers
// over one trace share its immutable instruction slice, so an N-cell sweep
// holds one copy per workload. Safe for concurrent use by the runner's
// workers.
type TraceDir struct {
	dir string
	mu  sync.Mutex
	m   map[string]*trace.Trace
}

// OpenTraceDir returns the replay source for the traces under dir. Files are
// read on first use; a cell whose trace is missing fails with the read error.
func OpenTraceDir(dir string) *TraceDir {
	return &TraceDir{dir: dir, m: make(map[string]*trace.Trace)}
}

// load returns the trace at path, reading the file on first use.
func (d *TraceDir) load(path string) (*trace.Trace, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.m[path]; ok {
		return t, nil
	}
	t, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d.m[path] = t
	return t, nil
}

// specFor resolves the declarative spec a benchmark name is bound to.
func (o Options) specFor(bench string) (*spec.Spec, bool) {
	s, ok := o.Specs[bench]
	return s, ok
}

// bindWorkload attaches the request's generator source. Replay (the
// recorded stream IS the identity, whatever produced it) takes precedence
// over a spec binding; with neither, the runner builds the built-in
// generator itself.
func (o Options) bindWorkload(req *runner.Request) {
	if o.Replay != nil {
		path := TraceFileName(o.Replay.dir, req.Bench, req.Seed)
		bench, seed, traces := req.Bench, req.Seed, o.Replay
		var wantFP uint64
		if s, ok := o.specFor(bench); ok {
			wantFP, _ = s.Fingerprint()
		}
		req.Source = func() (workload.Generator, error) {
			t, err := traces.load(path)
			if err != nil {
				return nil, err
			}
			if err := t.Meta.Verify("", bench, wantFP, seed); err != nil {
				return nil, fmt.Errorf("%w (file %s)", err, path)
			}
			return t.Replayer(), nil
		}
		// The cache key needs the trace's content fingerprint before the
		// run executes; the header peek is a single small read. A missing
		// or unreadable file leaves the request uncacheable and fails at
		// run time with the real error.
		if h, err := trace.PeekHeader(path); err == nil {
			req.SourceKey = fmt.Sprintf("trace:%016x", h.Fingerprint)
		} else {
			req.NoCache = true
		}
		return
	}
	if s, ok := o.specFor(req.Bench); ok {
		seed := req.Seed
		req.Source = func() (workload.Generator, error) { return workload.Compile(s, seed) }
		if fp, err := s.Fingerprint(); err == nil {
			req.SourceKey = fmt.Sprintf("spec:%016x", fp)
		} else {
			req.NoCache = true
		}
	}
}

// buildGenerator constructs the live generator for a workload name under
// the Options' spec bindings — what a sweep cell would consume without
// replay.
func (o Options) buildGenerator(bench string, seed uint64) (workload.Generator, trace.Meta, error) {
	if s, ok := o.specFor(bench); ok {
		gen, err := workload.Compile(s, seed)
		if err != nil {
			return nil, trace.Meta{}, err
		}
		fp, _ := s.Fingerprint()
		return gen, trace.Meta{
			Name: s.Name, SourceKind: trace.SourceSpec, SourceID: s.Name,
			SourceFP: fp, Seed: seed,
		}, nil
	}
	gen, err := workload.New(bench, seed)
	if err != nil {
		return nil, trace.Meta{}, err
	}
	return gen, trace.Meta{
		Name: bench, SourceKind: trace.SourceBench, SourceID: bench, Seed: seed,
	}, nil
}

// RecordTraces records every workload in o's benchmark set (spec bindings
// included) to dir, each o.longestWindow(bench) + headroom instructions
// long (headroom 0 selects trace.DefaultHeadroom), and returns how many
// traces were written. A directory recorded at some -scale serves any
// replay at the same or smaller scale under every driver and policy:
// generation is machine-independent, so the recorded prefix is exactly
// what live runs consume.
func RecordTraces(o Options, dir string, headroom uint64) (int, error) {
	if headroom == 0 {
		headroom = trace.DefaultHeadroom
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("experiments: trace dir: %w", err)
	}
	benches := o.benchmarks()
	for _, bench := range benches {
		gen, meta, err := o.buildGenerator(bench, o.seed())
		if err != nil {
			return 0, err
		}
		t := trace.Record(gen, o.longestWindow(bench)+headroom, meta)
		if err := trace.WriteFile(TraceFileName(dir, bench, o.seed()), t); err != nil {
			return 0, err
		}
	}
	return len(benches), nil
}
