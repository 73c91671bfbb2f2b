package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim"
)

// runCLI invokes the command in-process and returns its exit status,
// stdout and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs a successful invocation and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := runCLI(args...)
	if code != 0 {
		t.Fatalf("clustersim %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// TestSpecMatchesBench runs a benchmark by name and from its checked-in
// spec: the spec is the benchmark's only definition, so the printed
// statistics must be identical.
func TestSpecMatchesBench(t *testing.T) {
	for _, policy := range []string{"static", "explore", "dilp", "fg"} {
		byName := mustRun(t, "-bench", "gzip", "-policy", policy, "-n", "30000")
		bySpec := mustRun(t, "-spec", "../../specs/gzip.json", "-policy", policy, "-n", "30000")
		if byName != bySpec {
			t.Errorf("%s: -spec output differs from -bench:\n--- bench ---\n%s--- spec ---\n%s", policy, byName, bySpec)
		}
		if !strings.HasPrefix(byName, "benchmark        gzip\n") {
			t.Errorf("%s: unexpected output:\n%s", policy, byName)
		}
	}
}

func TestList(t *testing.T) {
	out := mustRun(t, "-list")
	if want := strings.Join(clustersim.Benchmarks(), "\n") + "\n"; out != want {
		t.Errorf("-list printed %q, want %q", out, want)
	}
}

// TestRecordReplay records a stream to a file and replays it: the replayed
// run prints the live run's statistics.
func TestRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vpr.ctrace")
	if out := mustRun(t, "-bench", "vpr", "-record-trace", path, "-n", "20000"); !strings.HasPrefix(out, "recorded ") {
		t.Fatalf("record printed %q", out)
	}
	live := mustRun(t, "-bench", "vpr", "-policy", "fgcr", "-n", "20000")
	replayed := mustRun(t, "-replay-trace", path, "-policy", "fgcr", "-n", "20000")
	if live != replayed {
		t.Errorf("replay differs from live run:\n--- live ---\n%s--- replay ---\n%s", live, replayed)
	}
	code, _, errOut := runCLI("-replay-trace", path, "-n", "500000")
	if code != 2 || !strings.Contains(errOut, "exhausted") {
		t.Errorf("replaying past the recording: exit %d, stderr %q", code, errOut)
	}
}

// TestInstrumentedRun drives the decentralized grid machine with the
// invariant checker, phase timer, trace and metrics attached; the metrics
// snapshot must agree with the printed statistics.
func TestInstrumentedRun(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	out := mustRun(t, "-bench", "swim", "-policy", "dilp", "-interval", "5000",
		"-cache", "dist", "-topo", "grid", "-n", "20000", "-check", "-phases",
		"-trace", filepath.Join(dir, "t.trace"), "-trace-format", "chrome", "-metrics", metrics)
	for _, want := range []string{"bank mispredicts", "flush writebacks", "invariants       ok", "phase attribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	if want := fmt.Sprintf("instructions     %.0f\n", snap.Counters["pipeline.instructions"]); !strings.Contains(out, want) {
		t.Errorf("metrics snapshot disagrees with stdout: want %q in\n%s", want, out)
	}
	mustRun(t, "-bench", "gzip", "-policy", "static", "-clusters", "4", "-n", "5000",
		"-trace", filepath.Join(dir, "t.jsonl"))
}

// TestUsageErrors checks that bad invocations exit 2 with a one-line
// message and never start a run.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-bench", "doom", "-n", "1000"},
		{"-policy", "magic", "-n", "1000"},
		{"-cache", "l3", "-n", "1000"},
		{"-topo", "torus", "-n", "1000"},
		{"-trace", filepath.Join(dir, "t"), "-trace-format", "xml", "-n", "1000"},
		{"-metrics", filepath.Join(dir, "absent", "m.json"), "-n", "1000"},
		{"-spec", filepath.Join(dir, "absent.json"), "-n", "1000"},
		{"-spec", "../../specs/smt-mix.json", "-n", "1000"},
		{"-replay-trace", filepath.Join(dir, "absent.ctrace"), "-n", "1000"},
		{"-record-trace", filepath.Join(dir, "a"), "-replay-trace", filepath.Join(dir, "b")},
	} {
		code, out, errOut := runCLI(args...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with a message", args, code, out, errOut)
		}
	}
	if code, _, _ := runCLI("-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}
