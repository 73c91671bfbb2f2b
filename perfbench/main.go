// Command perfbench is clustersim's repository benchmark. It runs one named
// workload against the simulator's public Go APIs for a fixed time, checks
// that the simulated results are correct, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end host-time numbers, measured
// with no instrumentation attached. With -trace 1 a separate traced run
// times every layer from outside (wrapped Controller and Generator
// interfaces, spans around pipeline.New, Processor.Run and runner.RunAll,
// the existing PhaseTimer and SweepMeter, and isolated component timings)
// and the metrics are the per-layer numbers. See README.md for the workload
// model and the prediction each layer metric carries.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload int16-live --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Seeds. devSeed is the seed to develop and tune against; heldOutSeed is
// kept back for confirming a claim once a change is written. Both have
// pinned digests in pins.json.
const (
	devSeed     = 1
	heldOutSeed = 97
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", devSeed, "workload seed (inputs are generated from it)")
	seconds := fs.Float64("seconds", 20, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds <= 0 || *seconds > 120 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be in (0, 120], got %g\n", *seconds)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := measure(config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		size:     fullSize,
		pins:     pins,
		spansDir: ".bench_build/spans",
		out:      stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the host-time metrics a user of the simulator sees, reported
// by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per simulator module.
// A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"runner.queue_wait_ms", "ms"},
	{"runner.cache_lookup_ms", "ms"},
	{"runner.execute_s", "s"},
	{"runner.utilization", "ratio"},
	{"runner.runs", "count"},
	{"runner.cache_hits", "count"},
	{"runner.deduped", "count"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.failures", "count"},
	{"experiments.driver_s", "s"},
	{"pipeline.new_ms", "ms"},
	{"pipeline.stage.commit_share", "ratio"},
	{"pipeline.stage.reconfig_share", "ratio"},
	{"pipeline.stage.issue_share", "ratio"},
	{"pipeline.stage.mem_share", "ratio"},
	{"pipeline.stage.dispatch_share", "ratio"},
	{"pipeline.stage.fetch_share", "ratio"},
	{"pipeline.stage.observe_share", "ratio"},
	{"pipeline.run_self_ns_per_instr", "ns"},
	{"core.oncommit_ns", "ns"},
	{"workload.next_ns", "ns"},
	{"workload.gen_minstr_per_s", "Minstr/s"},
	{"trace.next_ns", "ns"},
	{"trace.record_s", "s"},
	{"trace.mb", "MB"},
	{"interconnect.transfers", "count"},
	{"sim.net_avg_latency_cycles", "cycles"},
	{"interconnect.send_ns.ring", "ns"},
	{"interconnect.send_ns.grid", "ns"},
	{"interconnect.reserve_ns", "ns"},
	{"mem.loads", "count"},
	{"mem.stores", "count"},
	{"mem.l1_miss_ratio", "ratio"},
	{"mem.store_broadcasts", "count"},
	{"mem.bank_mispredicts", "count"},
	{"mem.load_ns.central", "ns"},
	{"mem.load_ns.dist", "ns"},
	{"bpred.lookups", "count"},
	{"bpred.mispredict_ratio", "ratio"},
	{"bpred.predict_ns", "ns"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_pause_ms_p99", "ms"},
	{"sim.ipc_geomean", "instr/cycle"},
	{"sim.cycles", "cycles"},
	{"sim.avg_active_clusters", "clusters"},
	{"sim.reconfigs_per_minstr", "1/Minstr"},
	{"sim.result_digest", "hash"},
	{"trace_overhead_pct", "%"},
	{"host.ref_ms", "ms"},
	{"self.bench_s", "s"},
	{"self.experiments_s", "s"},
	{"self.runner_s", "s"},
	{"self.pipeline_s", "s"},
	{"self.core_s", "s"},
	{"self.workload_s", "s"},
	{"self.trace_s", "s"},
}

// report is one invocation's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	defs              []metricDef
	// digest is sim.result_digest; digests holds each cell's digest under
	// its pins.json key.
	digest  uint64
	digests map[string]string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the result object, with every metric of the report's
// set, as one JSON line.
func writeReport(w io.Writer, r report) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metricJSON{}}
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricJSON{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
