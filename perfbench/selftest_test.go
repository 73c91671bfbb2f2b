package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"clustersim/internal/pipeline"
)

// tinySize runs every workload's full code path in well under a second of
// simulation per repetition.
var tinySize = size{
	liveInstrs:   4_000,
	replayInstrs: 4_000,
	sweepBenches: []string{"gzip"},
	sweepScale:   0.001,
	warmInstrs:   1_000,
	setups:       2,
	checkInstrs:  3_000,
	componentOps: 6_000,
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tiny runs one invocation at tinySize and returns its report, its whole
// output, and the decoded last line.
func tiny(t *testing.T, workload string, traced bool, pins map[string]string, corrupt func(*pipeline.Result)) (report, string, result) {
	t.Helper()
	var out bytes.Buffer
	r, err := measure(config{
		workload: workload,
		seed:     devSeed,
		seconds:  0.001,
		traced:   traced,
		size:     tinySize,
		pins:     pins,
		corrupt:  corrupt,
		spansDir: t.TempDir(),
		out:      &out,
	})
	if err != nil {
		t.Fatalf("%s traced=%t: %v\n%s", workload, traced, err, out.String())
	}
	if err := writeReport(&out, r); err != nil {
		t.Fatalf("%s traced=%t: %v", workload, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s traced=%t: last line is not the result object: %v", workload, traced, err)
	}
	return r, out.String(), res
}

func workloadList() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSelfTest runs every workload untraced and traced and checks that every
// metric is printed by name with its unit, that nothing failed, and that
// tracing leaves the simulated results unchanged.
func TestSelfTest(t *testing.T) {
	for _, name := range workloadList() {
		var digest uint64
		for _, traced := range []bool{false, true} {
			r, text, res := tiny(t, name, traced, nil, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, text)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + `\s+\S+\s+` + regexp.QuoteMeta(d.unit) + `(\s|$)`)
				if !line.MatchString(text) {
					t.Errorf("%s traced=%t: no printed line for %s with unit %s", name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
				digest = r.digest
			} else if r.digest != digest {
				t.Errorf("%s: traced digest %d differs from untraced %d", name, r.digest, digest)
			}
		}
	}
}

// TestGateFailsWrongPin pins one cell to a wrong digest and expects that
// cell to be reported failed in every repetition.
func TestGateFailsWrongPin(t *testing.T) {
	for _, name := range workloadList() {
		r, _, _ := tiny(t, name, false, nil, nil)
		pins := map[string]string{}
		for k, v := range r.digests {
			pins[k] = v
		}
		if _, _, res := tiny(t, name, false, pins, nil); !res.Correct {
			t.Fatalf("%s: failed with its own digests pinned", name)
		}
		var key string
		for k := range pins {
			key = k
			break
		}
		pins[key] = "0000000000000"
		_, text, res := tiny(t, name, false, pins, nil)
		if res.Correct || res.Failed == 0 || !strings.Contains(text, "pinned 0000000000000") {
			t.Errorf("%s: wrong pin for %s not reported: correct=%t failed=%d", name, key, res.Correct, res.Failed)
		}
	}
}

// TestGateFailsCorruptResult damages every Result's accounting before the
// gate sees it and expects every cell to fail.
func TestGateFailsCorruptResult(t *testing.T) {
	corruptions := map[string]func(*pipeline.Result){
		"mem":          func(r *pipeline.Result) { r.Mem.L1Hits++ },
		"interconnect": func(r *pipeline.Result) { r.Net.Hops = r.Net.Transfers*64 + 1 },
	}
	for _, name := range []string{"int16-live", "fp4-replay"} {
		for what, corrupt := range corruptions {
			r, text, res := tiny(t, name, false, nil, corrupt)
			if res.Correct || res.Failed < len(r.digests) {
				t.Errorf("%s: corrupt %s Result passed: failed=%d of %d cells\n%s", name, what, res.Failed, res.Attempted, text)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program measures, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(workloadList(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, workloadList())
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program has %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %+v, program has %s %s", i, c.json[i], d.name, d.unit)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "int16-live", "--trace", "2"},
		{"--workload", "int16-live", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no output", args, code, out.String())
		}
	}
}

var update = flag.Bool("update", false, "rewrite pins.json from full-size runs at the development and held-out seeds")

// TestUpdatePins regenerates pins.json. Run it only when a change alters
// simulated behaviour on purpose, and say so in the change.
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("pass -update to regenerate pins.json")
	}
	pins := map[string]string{}
	for _, name := range workloadList() {
		for _, seed := range []uint64{devSeed, heldOutSeed} {
			r, err := measure(config{workload: name, seed: seed, seconds: 0.001, size: fullSize})
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%s seed %d: %d cells failed", name, seed, r.failed)
			}
			for k, v := range r.digests {
				pins[k] = v
			}
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
