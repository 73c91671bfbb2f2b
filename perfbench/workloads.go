package main

import (
	"fmt"
	"time"
	"unsafe"

	"clustersim/internal/check"
	"clustersim/internal/core"
	"clustersim/internal/isa"
	"clustersim/internal/pipeline"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// policy names a controller and builds a fresh instance of it per cell.
type policy struct {
	name string
	mk   func() pipeline.Controller
}

// int16-live: the communication-bound side of the paper's trade-off.
// Integer codes on the Table 1 16-cluster ring with the centralized cache,
// generated live and driven through Processor.Run directly: steering over
// up to 16 clusters, ring transfers, LSQ ordering, per-commit OnCommit and
// engine Next are at their heaviest; the runner, trace replay and the
// decentralized banks are bypassed.
var (
	liveBenches  = []string{"vpr", "parser", "gzip", "crafty"}
	livePolicies = []policy{
		{"fg-branch", func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
		{"explore", func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }},
	}
)

// fp4-replay: the parallelism side. FP codes with distant ILP, replayed
// from traces recorded during set-up, on the decentralized cache and the
// grid: bank-per-cluster L1s, the bank predictor, store broadcasts and
// reconfiguration flushes replace the central L1, and replay replaces the
// engine.
var (
	replayBenches  = []string{"swim", "mgrid", "galgel"}
	replayPolicies = []policy{
		{"static-4", func() pipeline.Controller { return &core.Static{N: 4} }},
		{"dilp-10K", func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{Interval: 10_000}) }},
	}
)

// cellSpec is one simulated cell: a machine, a workload source and a
// policy.
type cellSpec struct {
	name   string
	bench  string
	cfg    pipeline.Config
	source func() (workload.Generator, error)
	// replay marks a trace-replayed source.
	replay bool
	policy policy
}

// runCell builds and runs one cell for n instructions.
func runCell(tr *tracer, cs cellSpec, n uint64) (pipeline.Result, error) {
	srcSpan := "workload.New"
	if cs.replay {
		srcSpan = "trace.Replayer"
	}
	sp := tr.begin(srcSpan, cs.name)
	gen, err := cs.source()
	tr.end(sp)
	if err != nil {
		return pipeline.Result{}, err
	}
	gen = tr.wrapGenerator(gen, cs.replay)
	p, err := tr.timedNew(cs.name, cs.cfg, gen, tr.wrapController(cs.policy.mk()))
	if err != nil {
		return pipeline.Result{}, err
	}
	return tr.timedRun(cs.name, p, n)
}

// runCells is one repetition of a cell list: every cell, one at a time,
// checked by the gate.
func runCells(tr *tracer, g *gate, cells []cellSpec, n uint64, diam int) repOut {
	var o repOut
	for _, cs := range cells {
		t0 := time.Now()
		res, err := runCell(tr, cs, n)
		o.latMs = append(o.latMs, float64(time.Since(t0).Nanoseconds())/1e6)
		o.attempted++
		co := cellOut{name: cs.name, err: err}
		if err == nil {
			co.digest, co.err = g.result(&res, diam)
			o.instrs += res.Instructions
			o.results = append(o.results, res)
		}
		o.cells = append(o.cells, co)
	}
	return o
}

// cellInstance wraps a cell list into an instance: set-up warms every cell
// up, a repetition runs each once, and the stepper check samples the cell
// the seed selects.
func cellInstance(c *config, g *gate, cells []cellSpec, n uint64, benches []string) (*instance, error) {
	diam, err := diameter(cells[0].cfg)
	if err != nil {
		return nil, err
	}
	for _, cs := range cells {
		if _, err := runCell(nil, cs, c.size.warmInstrs); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", cs.name, err)
		}
	}
	sample := cells[c.seed%uint64(len(cells))]
	return &instance{
		rep: func(tr *tracer) repOut { return runCells(tr, g, cells, n, diam) },
		stepCheck: func() error {
			return check.StepperEquivalence(sample.bench, c.seed, c.size.checkInstrs, sample.cfg, sample.policy.mk)
		},
		components: func(tr *tracer, m map[string]float64) error {
			return componentTimings(tr, m, benches, c.seed, c.size.componentOps)
		},
	}, nil
}

func setupLive(c *config, g *gate, _ *tracer) (*instance, error) {
	cfg := pipeline.DefaultConfig()
	var cells []cellSpec
	for _, b := range liveBenches {
		for _, pol := range livePolicies {
			cells = append(cells, cellSpec{
				name:   b + "/" + pol.name,
				bench:  b,
				cfg:    cfg,
				source: func() (workload.Generator, error) { return workload.New(b, c.seed) },
				policy: pol,
			})
		}
	}
	return cellInstance(c, g, cells, c.size.liveInstrs, liveBenches)
}

func setupReplay(c *config, g *gate, tr *tracer) (*instance, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Cache = pipeline.DecentralizedCache
	cfg.Topology = pipeline.GridTopology
	var cells []cellSpec
	var recorded int
	t0 := time.Now()
	for _, b := range replayBenches {
		sp := tr.begin("trace.Record", b)
		gen, err := workload.New(b, c.seed)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		t := trace.Record(gen, c.size.replayInstrs+trace.DefaultHeadroom, trace.Meta{
			Name: b, SourceKind: trace.SourceBench, SourceID: b, Seed: c.seed,
		})
		tr.end(sp)
		recorded += len(t.Instrs)
		for _, pol := range replayPolicies {
			cells = append(cells, cellSpec{
				name:   b + "/" + pol.name,
				bench:  b,
				cfg:    cfg,
				source: func() (workload.Generator, error) { return t.Replayer(), nil },
				replay: true,
				policy: pol,
			})
		}
	}
	recordS := time.Since(t0).Seconds()
	inst, err := cellInstance(c, g, cells, c.size.replayInstrs, replayBenches)
	if err != nil {
		return nil, err
	}
	inst.setupLayer = map[string]float64{
		"trace.record_s": recordS,
		"trace.mb":       float64(recorded) * float64(unsafe.Sizeof(isa.Instruction{})) / 1e6,
	}
	return inst, nil
}
