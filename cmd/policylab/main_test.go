package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a deterministic tournament small enough for a unit test: one
// benchmark, four candidates, one generation, short windows.
var tiny = []string{"-bench", "gzip", "-scale", "0.01", "-pop", "4", "-gens", "1", "-seed", "42", "-parallel", "1"}

// runCLI invokes the command in-process and returns its exit status,
// stdout and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTournamentDeterministic runs the same tiny tournament twice, once to
// stdout and once to -out files: the leaderboards must be identical.
func TestTournamentDeterministic(t *testing.T) {
	code, csv, errOut := runCLI(tiny...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	if lines := strings.Count(csv, "\n"); lines != 5 {
		t.Errorf("leaderboard has %d lines, want a header and 4 candidates:\n%s", lines, csv)
	}
	if !strings.Contains(errOut, "best ") {
		t.Errorf("stderr lacks the summary line:\n%s", errOut)
	}

	prefix := filepath.Join(t.TempDir(), "sub", "lb")
	if code, _, errOut := runCLI(append([]string{"-out", prefix}, tiny...)...); code != 0 {
		t.Fatalf("-out: exit %d\n%s", code, errOut)
	}
	again, err := os.ReadFile(prefix + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != csv {
		t.Errorf("second tournament differs:\n--- first ---\n%s--- second ---\n%s", csv, again)
	}
	if _, err := os.Stat(prefix + ".json"); err != nil {
		t.Errorf("-out wrote no JSON leaderboard: %v", err)
	}
}

// TestResume checkpoints a tournament, then resumes it: every evaluation is
// preloaded and the leaderboard is unchanged.
func TestResume(t *testing.T) {
	ck := t.TempDir()
	args := append([]string{"-checkpoint-dir", ck}, tiny...)
	code, first, errOut := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	code, resumed, errOut := runCLI(append([]string{"-resume"}, args...)...)
	if code != 0 {
		t.Fatalf("resume: exit %d\n%s", code, errOut)
	}
	if resumed != first {
		t.Errorf("resumed leaderboard differs:\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
	}
	if !strings.Contains(errOut, "preloaded") || !strings.Contains(errOut, " 0 runs,") {
		t.Errorf("resume simulated again:\n%s", errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-resume"}, 2},
		{[]string{"-bench", "doom", "-pop", "4", "-gens", "1", "-scale", "0.01"}, 1},
		{[]string{"-h"}, 0},
	} {
		if code, _, _ := runCLI(c.args...); code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
	}
}
