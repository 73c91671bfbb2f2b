package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"clustersim/internal/pipeline"
)

// size fixes how much simulated work one repetition holds. fullSize is the
// benchmark; the self-test uses tinySize.
type size struct {
	// liveInstrs and replayInstrs are the instructions per cell of
	// int16-live and fp4-replay.
	liveInstrs, replayInstrs uint64
	// sweepBenches and sweepScale are experiments.Options.Benchmarks and
	// Scale for repro-sweep (the drivers clamp windows to 50K
	// instructions, so the benchmark count sets the size below that).
	sweepBenches []string
	sweepScale   float64
	// warmInstrs is the warm-up length of each cell during set-up.
	warmInstrs uint64
	// setups is how many times set-up is repeated (setup_s is the median).
	setups int
	// checkInstrs is the StepperEquivalence window of the sampled cell.
	checkInstrs uint64
	// componentOps is the operation count of each isolated component
	// timing.
	componentOps int
}

var fullSize = size{
	liveInstrs:   250_000,
	replayInstrs: 250_000,
	sweepBenches: []string{"gzip", "parser", "vpr", "swim", "mgrid"},
	sweepScale:   0.02,
	warmInstrs:   40_000,
	setups:       7,
	checkInstrs:  60_000,
	componentOps: 400_000,
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	size     size
	// pins maps "<workload>/<seed>/<cell>" to the cell's expected digest
	// (hex). Cells without a pin are checked for repeatability only.
	pins map[string]string
	// corrupt, when set, damages every simulated Result before the
	// correctness gate sees it (the self-test's injected fault).
	corrupt func(*pipeline.Result)
	// spansDir receives the traced run's span file ("" writes none).
	spansDir string
	// out receives the human-readable metric lines.
	out io.Writer
}

// repOut is what one repetition of a workload's fixed work produced.
type repOut struct {
	// cells are the digest-bearing results, in a fixed order.
	cells []cellOut
	// latMs is the host latency of every executed cell.
	latMs []float64
	// instrs counts committed simulated instructions.
	instrs uint64
	// attempted counts cells requested (including cache hits); failed
	// the ones the simulator or runner reported failed.
	attempted, failed int
	// results holds every simulated Result the benchmark could see.
	results []pipeline.Result
	// layer carries workload-specific per-layer numbers (traced only).
	layer map[string]float64
	wallS float64
}

// cellOut is one checked output: a simulated Result or a rendered table.
type cellOut struct {
	name   string
	digest uint64
	err    error
}

// instance is a workload after set-up, ready to repeat its fixed work.
type instance struct {
	// rep runs one repetition; tr is nil for an untraced repetition.
	rep func(tr *tracer) repOut
	// stepCheck runs check.StepperEquivalence on one sampled cell.
	stepCheck func() error
	// components times the modules the workload uses in isolation, on
	// the workload's own instruction streams.
	components func(tr *tracer, m map[string]float64) error
	// setupLayer carries per-layer numbers measured during set-up.
	setupLayer map[string]float64
}

// workloadDef builds a workload's inputs from the seed and warms up.
type workloadDef func(c *config, g *gate, tr *tracer) (*instance, error)

var workloads = map[string]workloadDef{
	"int16-live":  setupLive,
	"fp4-replay":  setupReplay,
	"repro-sweep": setupSweep,
}

// measure runs one invocation: host probe, repeated set-up, the timed
// repetitions, the correctness gate, and (traced) the per-layer numbers.
func measure(c config) (report, error) {
	if c.out == nil {
		c.out = io.Discard
	}
	refBefore := refLoopMs()
	fmt.Fprintf(c.out, "host nproc=%d gomaxprocs=%d %s/%s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(c.out, "workload %s seed %d seconds %g trace %t\n", c.workload, c.seed, c.seconds, c.traced)

	g := newGate(c)
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}

	// Set-up is repeated so setup_s is a median; the last instance runs.
	var inst *instance
	setups := make([]float64, 0, c.size.setups)
	for i := 0; i < c.size.setups; i++ {
		runtime.GC()
		inst = nil
		t0 := time.Now()
		sp := tr.begin("bench.setup", "")
		var err error
		inst, err = workloads[c.workload](&c, g, tr)
		tr.end(sp)
		if err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Timed repetitions. A traced invocation alternates untraced and
	// traced repetitions so both see the same host conditions.
	var plain, traced []repOut
	start := time.Now()
	for {
		useTrace := c.traced && len(plain) > len(traced)
		var rt *tracer
		runtime.GC()
		var rm runtimeMark
		if useTrace {
			rt = tr
			rm = readRuntime()
		}
		sp := rt.begin("bench.rep", "")
		t0 := time.Now()
		out := inst.rep(rt)
		out.wallS = time.Since(t0).Seconds()
		rt.end(sp)
		g.rep(&out)
		fmt.Fprintf(c.out, "rep %d traced=%t wall %.4f s\n", len(plain)+len(traced), useTrace, out.wallS)
		if useTrace {
			rt.addRuntime(rm)
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
		done := time.Since(start).Seconds() >= c.seconds
		if done && (!c.traced || len(traced) > 0) {
			break
		}
	}

	// Correctness outside the timed region: the two steppers must agree
	// on one sampled cell.
	if err := inst.stepCheck(); err != nil {
		fmt.Fprintf(c.out, "FAIL stepper equivalence: %v\n", err)
		g.failed++
	} else {
		fmt.Fprintln(c.out, "stepper equivalence: ok")
	}

	r := report{metrics: map[string]float64{}, digest: g.repDigest, digests: g.digests()}
	for _, o := range append(append([]repOut(nil), plain...), traced...) {
		r.attempted += o.attempted
		r.failed += o.failed
	}
	r.failed += g.failed
	host := (refBefore + refLoopMs()) / 2

	if !c.traced {
		r.defs = endToEnd
		endToEndMetrics(r.metrics, setups, plain)
		fmt.Fprintf(c.out, "reps %d  cells %d  cells_failed %d  host.ref_ms %.2f (before %.2f)\n",
			len(plain), r.attempted, r.failed, host, refBefore)
		printMetrics(c.out, endToEnd, r.metrics, map[string]string{
			"setup_s":     fmt.Sprintf("median of %d set-ups: %.3f", len(setups), setups),
			"wall_s":      fmt.Sprintf("median of %d repetitions", len(plain)),
			"cell_ms_p50": fmt.Sprintf("n=%d cells", countLat(plain)),
			"cell_ms_p90": fmt.Sprintf("n=%d cells", countLat(plain)),
		})
		fmt.Fprintf(c.out, "sim.result_digest %d\n", g.repDigest)
		g.printDigests(c.out)
		return r, nil
	}

	r.defs = perLayer
	m := r.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range inst.setupLayer {
		m[k] = v
	}
	sp := tr.begin("bench.components", "")
	if err := inst.components(tr, m); err != nil {
		return report{}, fmt.Errorf("%s components: %w", c.workload, err)
	}
	tr.end(sp)
	notes := tr.layerMetrics(m, traced)
	m["sim.result_digest"] = float64(g.repDigest)
	m["host.ref_ms"] = host
	m["trace_overhead_pct"] = 100 * (median(walls(traced))/median(walls(plain)) - 1)
	fmt.Fprintf(c.out, "reps %d traced + %d untraced  cells %d  cells_failed %d  host.ref_ms before %.2f\n",
		len(traced), len(plain), r.attempted, r.failed, refBefore)
	printMetrics(c.out, perLayer, m, notes)
	g.printDigests(c.out)
	if c.spansDir != "" {
		path, err := tr.writeSpans(c.spansDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
		if err != nil {
			return report{}, err
		}
		fmt.Fprintf(c.out, "spans written to %s\n", path)
	}
	return r, nil
}

// endToEndMetrics reduces the untraced repetitions to the end-to-end set.
func endToEndMetrics(m map[string]float64, setups []float64, reps []repOut) {
	rates := make([]float64, len(reps))
	var lat []float64
	for i, o := range reps {
		rates[i] = float64(o.instrs) / 1e6 / o.wallS
		lat = append(lat, o.latMs...)
	}
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls(reps))
	m["sim_minstr_per_s"] = median(rates)
	m["cell_ms_p50"] = quantile(lat, 0.5)
	m["cell_ms_p90"] = quantile(lat, 0.9)
	m["peak_rss_mb"] = peakRSSMB()
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]float64, notes map[string]string) {
	for _, d := range defs {
		if n := notes[d.name]; n != "" {
			fmt.Fprintf(w, "%-34s %16.6g %-11s (%s)\n", d.name, m[d.name], d.unit, n)
		} else {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, m[d.name], d.unit)
		}
	}
}

func walls(reps []repOut) []float64 {
	w := make([]float64, len(reps))
	for i, o := range reps {
		w[i] = o.wallS
	}
	return w
}

func countLat(reps []repOut) int {
	n := 0
	for _, o := range reps {
		n += len(o.latMs)
	}
	return n
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; NaN for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// refSink keeps the reference loop's result alive.
var refSink uint64

// refLoopMs times a fixed CPU-bound loop (median of three) so drift in the
// host's speed between runs shows as a number of its own.
func refLoopMs() float64 {
	t := make([]float64, 3)
	for i := range t {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
		t[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(t)
}
