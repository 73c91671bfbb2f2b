package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"clustersim/internal/check"
	"clustersim/internal/core"
	"clustersim/internal/experiments"
	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// repro-sweep: the reproduction's own drivers through one shared runner
// with the run cache on, scaled to a small host (size.sweepBenches and
// size.sweepScale). Hundreds of short cells whose simulated caches start
// empty, so runner queueing, cache hits, per-cell pipeline.New, GC under
// parallel workers and driver overhead carry the load.
var sweepDrivers = []string{"table3", "fig3", "fig5", "fig6", "fig7", "fig8", "sens"}

type driver = func(experiments.Options) ([]*experiments.Table, error)

func setupSweep(c *config, g *gate, tr *tracer) (*instance, error) {
	reg := experiments.Registry()
	drivers := make([]driver, len(sweepDrivers))
	for i, id := range sweepDrivers {
		d, ok := reg[id]
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", id)
		}
		drivers[i] = d
	}
	// experiments.Options treats seed 0 as 1; the sampled cell follows.
	seed := max(c.seed, 1)
	benches := c.size.sweepBenches
	opts := experiments.Options{Seed: seed, Scale: c.size.sweepScale, Benchmarks: benches}
	workers := runtime.NumCPU()

	// Warm-up: the first driver on a runner of its own.
	warm := opts
	warm.Runner = runner.New(workers)
	sp := tr.begin("experiments."+sweepDrivers[0], "")
	_, err := drivers[0](warm)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	sample := benches[c.seed%uint64(len(benches))]
	return &instance{
		rep: func(tr *tracer) repOut { return sweepRep(tr, opts, drivers, workers) },
		stepCheck: func() error {
			// One fig7 cell: decentralized cache under explore.
			cfg := pipeline.DefaultConfig()
			cfg.Cache = pipeline.DecentralizedCache
			return check.StepperEquivalence(sample, seed, c.size.checkInstrs, cfg,
				func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) })
		},
		components: func(tr *tracer, m map[string]float64) error {
			// The runner calls pipeline.New out of reach here, so it is
			// timed in isolation on the sweep's own benchmarks.
			for _, b := range benches {
				for i := 0; i < 3; i++ {
					gen, err := workload.New(b, seed)
					if err != nil {
						return err
					}
					if _, err := tr.timedNew("", pipeline.DefaultConfig(), gen, nil); err != nil {
						return err
					}
				}
			}
			return componentTimings(tr, m, benches, seed, c.size.componentOps)
		},
	}, nil
}

// sweepRep runs every driver once on a fresh runner, so each repetition
// starts with an empty run cache.
func sweepRep(tr *tracer, opts experiments.Options, drivers []driver, workers int) repOut {
	log := &progressLog{}
	meter := telemetry.NewSweepMeter(nil, telemetry.NewProgressWriter(log))
	r := runner.New(workers)
	r.Meter = meter
	opts.Runner = r
	if tr != nil {
		opts.Phases = tr.phases
	}

	type driverRun struct {
		span       int
		start, end time.Time
	}
	var o repOut
	runs := make([]driverRun, len(drivers))
	for i, d := range drivers {
		id := sweepDrivers[i]
		runs[i].span = tr.begin("experiments."+id, "")
		runs[i].start = time.Now()
		tables, err := d(opts)
		runs[i].end = time.Now()
		tr.end(runs[i].span)
		var text strings.Builder
		for _, t := range tables {
			text.WriteString(t.ID + "\n" + t.CSV())
		}
		if err == nil && len(tables) == 0 {
			err = fmt.Errorf("no table")
		}
		o.cells = append(o.cells, cellOut{name: id, digest: textDigest(text.String()), err: err})
	}

	batches, err := log.batches(workers)
	if err != nil {
		o.cells = append(o.cells, cellOut{name: "progress-stream", err: err})
	}
	var busy, batchWall, driverWall float64
	for _, d := range runs {
		driverWall += d.end.Sub(d.start).Seconds()
	}
	for _, b := range batches {
		batchWall += b.end.Sub(b.start).Seconds()
		parent := 0
		for _, d := range runs {
			if !b.start.Before(d.start) && !b.end.After(d.end) {
				parent = d.span
			}
		}
		bs := tr.add("runner.RunAll", "", parent, b.start, b.end)
		for _, x := range b.runs {
			cell := x.id + "/" + x.bench + "/" + x.policy
			tr.add("pipeline.run", cell, bs, x.start, x.end)
			o.latMs = append(o.latMs, float64(x.end.Sub(x.start).Nanoseconds())/1e6)
			busy += x.end.Sub(x.start).Seconds()
			if x.ok {
				o.instrs += opts.Window(x.bench)
			}
		}
	}
	st := r.Stats()
	requests := st.Runs + st.CacheHits + st.Deduped + st.Failures
	o.attempted = requests + len(o.cells)
	o.failed = st.Failures
	if tr != nil {
		o.layer = map[string]float64{
			"runner.queue_wait_ms":   float64(meter.SpanNanos(telemetry.SpanQueueWait)) / 1e6 / float64(max(st.Runs+st.Failures, 1)),
			"runner.cache_lookup_ms": float64(meter.SpanNanos(telemetry.SpanCacheLookup)) / 1e6,
			"runner.execute_s":       float64(meter.SpanNanos(telemetry.SpanExecute)) / 1e9,
			"runner.utilization":     busy / (batchWall * float64(workers)),
			"runner.runs":            float64(st.Runs),
			"runner.cache_hits":      float64(st.CacheHits),
			"runner.deduped":         float64(st.Deduped),
			"runner.cache_hit_ratio": float64(st.CacheHits) / float64(max(requests, 1)),
			"runner.failures":        float64(st.Failures),
			"experiments.driver_s":   driverWall - batchWall,
		}
	}
	return o
}

// progressLog receives the runner's JSONL progress stream and stamps each
// line with its arrival time. The runner writes one flushed line per event
// as it happens, so the stamp is the event's host time.
type progressLog struct {
	mu    sync.Mutex
	lines []stampedLine
}

type stampedLine struct {
	at   time.Time
	line []byte
}

func (l *progressLog) Write(p []byte) (int, error) {
	at := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range bytes.Split(bytes.TrimRight(p, "\n"), []byte("\n")) {
		l.lines = append(l.lines, stampedLine{at, append([]byte(nil), line...)})
	}
	return len(p), nil
}

// batch is one RunAll call as seen in the stream.
type batch struct {
	start, end time.Time
	runs       []execRun
}

// execRun is one executed request.
type execRun struct {
	id, bench, policy string
	ok                bool
	start, end        time.Time
}

// batches decodes the stream into RunAll calls and recovers each executed
// run's host interval. A worker takes its next request as soon as it
// finishes one, so a run starts where its worker's previous run ended (or
// at the batch start); the event's whole-millisecond run_ms says which
// worker that was.
func (l *progressLog) batches(workers int) ([]batch, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []batch
	var free []time.Time
	for _, sl := range l.lines {
		var ev telemetry.ProgressEvent
		if err := json.Unmarshal(sl.line, &ev); err != nil {
			return out, fmt.Errorf("progress stream: %w", err)
		}
		switch ev.Event {
		case "batch_start":
			out = append(out, batch{start: sl.at})
			free = free[:0]
			for i := 0; i < workers; i++ {
				free = append(free, sl.at)
			}
		case "run_done":
			if len(out) == 0 {
				return out, fmt.Errorf("progress stream: run_done before batch_start")
			}
			want := time.Duration(ev.RunMs)*time.Millisecond + 500*time.Microsecond
			best := 0
			for w := range free {
				if absDur(sl.at.Sub(free[w])-want) < absDur(sl.at.Sub(free[best])-want) {
					best = w
				}
			}
			b := &out[len(out)-1]
			b.runs = append(b.runs, execRun{
				id: ev.ID, bench: ev.Bench, policy: ev.Policy, ok: ev.OK != nil && *ev.OK,
				start: free[best], end: sl.at,
			})
			free[best] = sl.at
		case "batch_done":
			if len(out) == 0 {
				return out, fmt.Errorf("progress stream: batch_done before batch_start")
			}
			out[len(out)-1].end = sl.at
		}
	}
	return out, nil
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
