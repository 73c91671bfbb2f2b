// Command policylab searches reconfiguration-policy parameter space and
// emits a ranked leaderboard.
//
// Usage:
//
//	policylab -bench gzip,vpr -scale 0.1 -pop 16 -gens 3 -out results/policies
//	policylab -pop 32 -checkpoint-dir ck          # full matrix, crash-safe
//	policylab -pop 32 -checkpoint-dir ck -resume  # finish a killed search
//
// The search is a deterministic tournament (internal/policy): generation
// zero seeds the paper's controllers (§4.2 exploration, §4.3 distant-ILP,
// §4.4 fine-grain and its call/return variant) plus random
// parameterizations; each generation evaluates benchmark × candidate as one
// cacheable sweep, keeps the elites and breeds the rest by tournament
// selection with family-specific mutation. Candidates are scored on geomean
// IPC minus weighted energy-per-instruction and reconfiguration churn.
//
// Identical invocations produce identical leaderboards, and every
// evaluation is content-addressed (the spec fingerprint is part of the run
// cache key), so a rerun — or a -resume after a crash — simulates nothing
// that already completed.
//
// -out writes <prefix>.csv and <prefix>.json; without it the CSV goes to
// stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clustersim/internal/experiments"
	"clustersim/internal/policy"
	"clustersim/internal/runner"
	"clustersim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation with the given arguments and returns the
// process exit status: 0 on success, 1 when the search or its output
// fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policylab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "policylab: %v\n", err)
		return 1
	}
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all nine)")
	scale := fs.Float64("scale", 1.0, "simulation window scale factor")
	seed := fs.Uint64("seed", 42, "search seed (candidate generation and mutation)")
	wseed := fs.Uint64("workload-seed", 1, "workload seed for every evaluation run")
	pop := fs.Int("pop", 16, "candidates per generation (minimum 4)")
	gens := fs.Int("gens", 3, "generations")
	elites := fs.Int("elites", 0, "candidates surviving unchanged per generation (0 = pop/4)")
	parallel := fs.Int("parallel", 0, "sweep worker-pool width (0 = GOMAXPROCS)")
	ckDir := fs.String("checkpoint-dir", "", "crash-safety directory: runs snapshot here and persist finished results for -resume")
	resume := fs.Bool("resume", false, "preload results persisted under -checkpoint-dir by an earlier invocation")
	out := fs.String("out", "", "output path prefix: writes <prefix>.csv and <prefix>.json (default: CSV on stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	benchList := workload.Benchmarks()
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
	}

	rn := runner.New(*parallel)
	rn.CheckpointDir = *ckDir
	if *resume {
		if *ckDir == "" {
			fmt.Fprintln(stderr, "policylab: -resume requires -checkpoint-dir")
			return 2
		}
		n, err := rn.LoadPersisted()
		if err != nil {
			return fail(fmt.Errorf("resume: %w", err))
		}
		fmt.Fprintf(stderr, "policylab: resume: preloaded %d persisted result(s) from %s\n", n, *ckDir)
	}

	// Windows come from the experiments package's calibrated per-benchmark
	// table, so a policylab IPC is directly comparable to the figures.
	windows := experiments.Options{Scale: *scale}

	lb, err := policy.Search(policy.SearchOptions{
		Seed:         *seed,
		Population:   *pop,
		Generations:  *gens,
		Elites:       *elites,
		Benchmarks:   benchList,
		Window:       windows.Window,
		WorkloadSeed: *wseed,
		Runner:       rn,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(stderr, "policylab: "+format+"\n", args...)
		},
	})
	if err != nil {
		return fail(err)
	}

	if *out == "" {
		if err := lb.WriteCSV(stdout); err != nil {
			return fail(err)
		}
	} else {
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(err)
			}
		}
		write := func(path string, render func(f io.Writer) error) error {
			f, err := os.Create(path)
			if err == nil {
				err = render(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			return err
		}
		if err := write(*out+".csv", lb.WriteCSV); err != nil {
			return fail(err)
		}
		if err := write(*out+".json", lb.WriteJSON); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "policylab: wrote %s.csv and %s.json\n", *out, *out)
	}

	best := lb.Entries[0]
	st := rn.Stats()
	fmt.Fprintf(stderr, "policylab: %d candidates over %s; best %s (fp %016x) score %.4f geomean IPC %.4f; %d runs, %d cache hits\n",
		len(lb.Entries), strings.Join(benchList, ","), best.Spec.Name, best.Fingerprint,
		best.Aggregate.Score, best.Aggregate.IPC, st.Runs, st.CacheHits)
	return 0
}
