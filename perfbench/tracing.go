package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"clustersim/internal/isa"
	"clustersim/internal/pipeline"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one simulated cell share its Cell id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer returns the module a span's time belongs to: its name up to the
// first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// sampleMask selects one call in 64 for timing: timing every OnCommit and
// Next call with two clock reads slows a run by about a quarter.
const sampleMask = 63

// sampler times one call site by sampling.
type sampler struct {
	calls, sampled uint64
	ns             int64
}

// perCallNs estimates the mean time of one call net of the clock reads.
func (s *sampler) perCallNs(clockNs float64) float64 {
	if s.sampled == 0 {
		return 0
	}
	return math.Max(0, float64(s.ns)/float64(s.sampled)-clockNs)
}

// tracer records spans and sampled call timings of the traced repetitions.
// A nil *tracer is the untraced state: every method is a no-op and the
// wrappers return their argument unchanged.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	// clockNs is the cost of one empty timed interval.
	clockNs float64
	phases  *telemetry.PhaseTimer

	ctrl, gen, replay sampler
	// newMs is the duration of every traced pipeline.New call.
	newMs []float64

	rt runtimeDelta
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), phases: telemetry.NewPhaseTimer(0)}
	const n = 200_000
	var sum int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0).Nanoseconds()
	}
	t.clockNs = float64(sum) / n
	return t
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name, cell string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: t.now()})
	t.open = append(t.open, len(t.spans))
	return len(t.spans)
}

// end closes span id and any span left open inside it.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top-1].End = now
		if top == id {
			return
		}
	}
}

// add records a span whose bounds were observed elsewhere (the runner's
// progress stream) under parent, and returns its id.
func (t *tracer) add(name, cell string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// timedNew is pipeline.New, timed as a span of the cell when traced.
func (t *tracer) timedNew(cell string, cfg pipeline.Config, gen workload.Generator, ctrl pipeline.Controller) (*pipeline.Processor, error) {
	if t == nil {
		return pipeline.New(cfg, gen, ctrl)
	}
	cfg.Phases = t.phases
	sp := t.begin("pipeline.New", cell)
	p, err := pipeline.New(cfg, gen, ctrl)
	t.end(sp)
	s := t.spans[sp-1]
	t.newMs = append(t.newMs, float64(s.End-s.Start)/1e6)
	return p, err
}

// timedRun is Processor.Run, timed as a span of the cell when traced.
func (t *tracer) timedRun(cell string, p *pipeline.Processor, n uint64) (pipeline.Result, error) {
	sp := t.begin("pipeline.Run", cell)
	res, err := p.Run(n)
	t.end(sp)
	return res, err
}

// timedController samples Controller.OnCommit.
type timedController struct {
	pipeline.Controller
	s *sampler
}

func (c *timedController) OnCommit(ev pipeline.CommitEvent) int {
	c.s.calls++
	if c.s.calls&sampleMask != 0 {
		return c.Controller.OnCommit(ev)
	}
	t0 := time.Now()
	want := c.Controller.OnCommit(ev)
	c.s.ns += time.Since(t0).Nanoseconds()
	c.s.sampled++
	return want
}

// timedGenerator samples Generator.Next.
type timedGenerator struct {
	workload.Generator
	s *sampler
}

func (g *timedGenerator) Next(in *isa.Instruction) {
	g.s.calls++
	if g.s.calls&sampleMask != 0 {
		g.Generator.Next(in)
		return
	}
	t0 := time.Now()
	g.Generator.Next(in)
	g.s.ns += time.Since(t0).Nanoseconds()
	g.s.sampled++
}

func (t *tracer) wrapController(c pipeline.Controller) pipeline.Controller {
	if t == nil {
		return c
	}
	return &timedController{Controller: c, s: &t.ctrl}
}

// wrapGenerator wraps a live workload engine (replay false) or a trace
// replayer (replay true).
func (t *tracer) wrapGenerator(g workload.Generator, replay bool) workload.Generator {
	if t == nil {
		return g
	}
	s := &t.gen
	if replay {
		s = &t.replay
	}
	return &timedGenerator{Generator: g, s: s}
}

// runtimeDelta accumulates Go runtime activity over the traced repetitions.
type runtimeDelta struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	pauses          []uint64
	bounds          []float64
}

type runtimeMark struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readRuntime() runtimeMark {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/pauses:seconds"},
	}
	metrics.Read(s)
	var m runtimeMark
	if s[0].Value.Kind() == metrics.KindUint64 {
		m.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		m.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		m.pauses = s[3].Value.Float64Histogram()
	}
	return m
}

// addRuntime folds the activity between two marks into the tracer. The
// runtime updates its CPU-class estimates at collections, so the end mark
// is taken right after one.
func (t *tracer) addRuntime(from runtimeMark) {
	runtime.GC()
	to := readRuntime()
	d := &t.rt
	d.allocBytes += to.allocBytes - from.allocBytes
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totalCPU += to.totalCPU - from.totalCPU
	if from.pauses == nil || to.pauses == nil || len(from.pauses.Counts) != len(to.pauses.Counts) {
		return
	}
	if d.pauses == nil {
		d.pauses = make([]uint64, len(to.pauses.Counts))
		d.bounds = to.pauses.Buckets
	}
	for i := range d.pauses {
		d.pauses[i] += to.pauses.Counts[i] - from.pauses.Counts[i]
	}
}

// pauseP99Ms returns the upper edge of the bucket holding the 99th
// percentile GC pause.
func (d *runtimeDelta) pauseP99Ms() float64 {
	var total uint64
	for _, c := range d.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d.pauses {
		seen += c
		if seen >= need {
			hi := d.bounds[i+1]
			if math.IsInf(hi, 1) {
				hi = d.bounds[i]
			}
			return hi * 1e3
		}
	}
	return 0
}

// layerMetrics fills the per-layer metrics measured by the traced
// repetitions and returns notes (sample counts, bases) for printing.
func (t *tracer) layerMetrics(m map[string]float64, reps []repOut) map[string]string {
	notes := map[string]string{}
	n := float64(len(reps))

	if len(t.newMs) > 0 {
		m["pipeline.new_ms"] = median(t.newMs)
		notes["pipeline.new_ms"] = fmt.Sprintf("median of %d calls", len(t.newMs))
	}
	rep := t.phases.Report()
	for _, s := range rep.Phases {
		m["pipeline.stage."+s.Phase+"_share"] = s.Fraction
	}
	notes["pipeline.stage.commit_share"] = fmt.Sprintf("%d cycles sampled, 1 in %d", rep.SampledCycles, rep.Period)

	ctrlNs := t.ctrl.perCallNs(t.clockNs)
	genNs := t.gen.perCallNs(t.clockNs)
	replayNs := t.replay.perCallNs(t.clockNs)
	m["core.oncommit_ns"] = ctrlNs
	m["workload.next_ns"] = genNs
	m["trace.next_ns"] = replayNs
	notes["core.oncommit_ns"] = fmt.Sprintf("%d calls, %d timed, clock cost %.1f ns removed", t.ctrl.calls, t.ctrl.sampled, t.clockNs)
	notes["workload.next_ns"] = fmt.Sprintf("%d calls, %d timed", t.gen.calls, t.gen.sampled)
	notes["trace.next_ns"] = fmt.Sprintf("%d calls, %d timed", t.replay.calls, t.replay.sampled)
	ctrlS := ctrlNs * float64(t.ctrl.calls) / 1e9
	genS := genNs * float64(t.gen.calls) / 1e9
	replayS := replayNs * float64(t.replay.calls) / 1e9

	self, total := t.selfTimes()
	runNs := 1e9 * total["pipeline.Run"]
	var runInstrs uint64
	for _, o := range reps {
		for k, v := range o.layer {
			m[k] += v / n
		}
		if l := o.layer; l != nil {
			notes["runner.cache_hit_ratio"] = fmt.Sprintf("%.0f hits of %.0f requests per repetition", l["runner.cache_hits"],
				l["runner.runs"]+l["runner.cache_hits"]+l["runner.deduped"]+l["runner.failures"])
		}
		if len(o.results) > 0 {
			runInstrs += o.instrs
		}
	}
	if runInstrs > 0 {
		m["pipeline.run_self_ns_per_instr"] = (runNs - 1e9*(ctrlS+genS+replayS)) / float64(runInstrs)
	}
	self["pipeline"] -= ctrlS + genS + replayS
	self["core"] += ctrlS
	self["workload"] += genS
	self["trace"] += replayS
	for _, l := range []string{"bench", "experiments", "runner", "pipeline", "core", "workload", "trace"} {
		m["self."+l+"_s"] = self[l] / n
	}
	notes["self.bench_s"] = fmt.Sprintf("per traced repetition, mean of %d", len(reps))

	if len(reps) > 0 {
		simMetrics(m, reps[0].results)
	}
	m["go.alloc_mb"] = float64(t.rt.allocBytes) / 1e6 / n
	if t.rt.totalCPU > 0 {
		m["go.gc_cpu_frac"] = t.rt.gcCPU / t.rt.totalCPU
	}
	m["go.gc_pause_ms_p99"] = t.rt.pauseP99Ms()
	notes["go.alloc_mb"] = "per traced repetition"
	return notes
}

// simMetrics fills the simulated (sim.*) and per-module count metrics from
// one repetition's Results.
func simMetrics(m map[string]float64, results []pipeline.Result) {
	if len(results) == 0 {
		return
	}
	var cycles, instrs, active, reconfigs uint64
	var transfers, latency, loads, stores, hits, misses, bcasts, bankMiss, lookups, mispred uint64
	logIPC := 0.0
	for _, r := range results {
		cycles += r.Cycles
		instrs += r.Instructions
		active += r.ActiveSum
		reconfigs += r.Reconfigs
		transfers += r.Net.Transfers
		latency += r.Net.LatencySum
		loads += r.Mem.Loads
		stores += r.Mem.Stores
		hits += r.Mem.L1Hits
		misses += r.Mem.L1Misses
		bcasts += r.StoreBroadcasts
		bankMiss += r.BankMispredicts
		lookups += r.Branch.Lookups
		mispred += r.Branch.Mispredicts
		logIPC += math.Log(r.IPC())
	}
	m["sim.ipc_geomean"] = math.Exp(logIPC / float64(len(results)))
	m["sim.cycles"] = float64(cycles)
	m["sim.avg_active_clusters"] = ratio(active, cycles)
	m["sim.reconfigs_per_minstr"] = 1e6 * ratio(reconfigs, instrs)
	m["interconnect.transfers"] = float64(transfers)
	m["sim.net_avg_latency_cycles"] = ratio(latency, transfers)
	m["mem.loads"] = float64(loads)
	m["mem.stores"] = float64(stores)
	m["mem.l1_miss_ratio"] = ratio(misses, hits+misses)
	m["mem.store_broadcasts"] = float64(bcasts)
	m["mem.bank_mispredicts"] = float64(bankMiss)
	m["bpred.lookups"] = float64(lookups)
	m["bpred.mispredict_ratio"] = ratio(mispred, lookups)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// selfTimes returns, per layer, the seconds its spans inside traced
// repetitions spent outside their child spans, and per span name the
// seconds those spans lasted. Children may overlap (the runner's workers),
// so the covered part is the union of their intervals.
func (t *tracer) selfTimes() (self, total map[string]float64) {
	children := make([][]int, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	self, total = map[string]float64{}, map[string]float64{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		iv := make([][2]int64, 0, len(children[id]))
		for _, c := range children[id] {
			cs := t.spans[c-1]
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			walk(c)
		}
		self[s.layer()] += float64(s.End-s.Start-covered(iv)) / 1e9
		total[s.Name] += float64(s.End-s.Start) / 1e9
	}
	for _, id := range children[0] {
		if t.spans[id-1].Name == "bench.rep" {
			walk(id)
		}
	}
	return self, total
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = math.MinInt64
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans writes every recorded span as one JSON line to dir/name and
// returns the path.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
