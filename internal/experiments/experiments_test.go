package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/stats"
)

// tinyOpts keeps experiment tests fast: two benchmarks, small windows.
func tinyOpts() Options {
	return Options{Seed: 1, Scale: 0.08, Benchmarks: []string{"gzip", "vpr"}}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate", "counterfactual", "ext-energy", "ext-smt", "fig3", "fig5", "fig6", "fig7", "fig8", "params", "policy", "sens", "table3", "table4"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	reg := Registry()
	for _, id := range got {
		if reg[id] == nil {
			t.Fatalf("nil driver for %s", id)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 || o.scale() != 1 {
		t.Fatal("zero-options defaults wrong")
	}
	if len(o.benchmarks()) != 9 {
		t.Fatalf("default benchmark set: %v", o.benchmarks())
	}
	if o.Window("gzip") <= o.Window("cjpeg") {
		t.Fatal("gzip window should exceed cjpeg's (longer phases)")
	}
	small := Options{Scale: 0.0001}
	if small.Window("gzip") < 50_000 {
		t.Fatal("window floor not applied")
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Name: "row1", Cells: []Cell{Num(1.5, 2), Str("hi")}},
			{Name: "row2", Cells: []Cell{Num(2.25, 2)}}, // short row
		},
		Notes: []string{"a note"},
	}
	s := tb.Format()
	for _, want := range []string{"row1", "1.50", "hi", "a note", "== x: test =="} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestGeomean(t *testing.T) {
	if geomean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if geomean([]float64{1, 0}) != 0 {
		t.Fatal("non-positive input should yield 0")
	}
}

func TestParams(t *testing.T) {
	tb := Params()
	if len(tb.Rows) < 10 {
		t.Fatalf("params table too small: %d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.Format(), "480") {
		t.Fatal("ROB size missing from params")
	}
}

func TestTable3Tiny(t *testing.T) {
	tb, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Cells[1].Value <= 0 {
			t.Errorf("%s: non-positive IPC", r.Name)
		}
	}
}

func TestFig3Tiny(t *testing.T) {
	tb, err := Fig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		for i := 0; i < 4; i++ {
			if r.Cells[i].Value <= 0 {
				t.Errorf("%s col %d: non-positive IPC", r.Name, i)
			}
		}
	}
}

// TestTable4Tiny: table4's cells are in range, and every table4-curve cell
// is the instability factor of the benchmark's 10K-interval trace
// re-aggregated to that length; the curve's 10K and min-interval columns
// repeat table4's instab@10K% and min-interval.
func TestTable4Tiny(t *testing.T) {
	o := tinyOpts()
	tables, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "table4" || tables[1].ID != "table4-curve" {
		t.Fatalf("want table4 and table4-curve, got %d tables", len(tables))
	}
	summary, curve := tables[0], tables[1]
	for _, r := range summary.Rows {
		if r.Cells[0].Value < 10_000 {
			t.Errorf("%s: min interval %f below base", r.Name, r.Cells[0].Value)
		}
		if r.Cells[2].Value < 0 || r.Cells[2].Value > 100 {
			t.Errorf("%s: instability %f out of range", r.Name, r.Cells[2].Value)
		}
	}
	mults := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if len(curve.Columns) != len(mults)+1 || len(curve.Rows) != len(o.Benchmarks) {
		t.Fatalf("curve shape: columns %v, %d rows", curve.Columns, len(curve.Rows))
	}
	th := stats.DefaultThresholds()
	for bi, b := range o.Benchmarks {
		rec := stats.NewRecorder(10_000)
		q := o.request("trace", b, pipeline.DefaultConfig(), rec, o.longestWindow(b))
		q.NoCache = true
		if _, err := runner.New(1).RunAll([]runner.Request{q}); err != nil {
			t.Fatal(err)
		}
		trace := rec.Intervals()
		row := curve.Rows[bi]
		if row.Name != b {
			t.Fatalf("row %d is %s, want %s", bi, row.Name, b)
		}
		for mi, m := range mults {
			if got, want := row.Cells[mi].Value, stats.Instability(stats.Aggregate(trace, m), th); got != want {
				t.Errorf("%s at %dK: curve %v, trace %v", b, 10*m, got, want)
			}
		}
		if got, want := row.Cells[0].Text, summary.Rows[bi].Cells[2].Text; got != want {
			t.Errorf("%s: curve 10K %s, table4 instab@10K%% %s", b, got, want)
		}
		if got, want := row.Cells[len(mults)].Text, summary.Rows[bi].Cells[0].Text; got != want {
			t.Errorf("%s: curve min-interval %s, table4 %s", b, got, want)
		}
	}
}

func TestFig5Tiny(t *testing.T) {
	tb, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks + geomean row.
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if tb.Rows[2].Name != "geomean" {
		t.Fatal("missing geomean row")
	}
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "explore vs best static") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing improvement note")
	}
}

func TestFig6Fig7Fig8Tiny(t *testing.T) {
	for _, f := range []func(Options) (*Table, error){Fig6, Fig7, Fig8} {
		tb, err := f(tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) < 3 {
			t.Fatalf("%s: %d rows", tb.ID, len(tb.Rows))
		}
		for _, r := range tb.Rows {
			for i, c := range r.Cells {
				if c.IsNum && c.Value <= 0 {
					t.Errorf("%s %s col %d non-positive", tb.ID, r.Name, i)
				}
			}
		}
	}
}

func TestSensitivityTiny(t *testing.T) {
	o := tinyOpts()
	o.Benchmarks = []string{"gzip"}
	tb, err := Sensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("%d variants", len(tb.Rows))
	}
}

func TestEnergyTiny(t *testing.T) {
	tb, err := Energy(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		save := r.Cells[3].Value
		if save < 0 || save > 100 {
			t.Errorf("%s: leakage saving %f out of range", r.Name, save)
		}
		if r.Cells[4].Value <= 0 {
			t.Errorf("%s: non-positive EDP ratio", r.Name)
		}
	}
}

func TestSMTTiny(t *testing.T) {
	o := tinyOpts()
	tb, err := SMT(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		for i := 0; i < 4; i++ {
			if r.Cells[i].IsNum && r.Cells[i].Value <= 0 {
				t.Errorf("%s col %d: non-positive throughput", r.Name, i)
			}
		}
	}
}

func TestAblationsTiny(t *testing.T) {
	tb, err := Ablations(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Idealizations can only help: the free variants must not be slower
	// than their base.
	base := tb.Rows[0].Cells[0].Value
	for _, i := range []int{1, 2} {
		if tb.Rows[i].Cells[0].Value < base*0.99 {
			t.Errorf("central ablation %s below base", tb.Rows[i].Name)
		}
	}
	distBase := tb.Rows[3].Cells[0].Value
	for _, i := range []int{4, 5} {
		if tb.Rows[i].Cells[0].Value < distBase*0.99 {
			t.Errorf("dist ablation %s below base", tb.Rows[i].Name)
		}
	}
	if len(tb.Notes) < 2 {
		t.Fatal("missing latency/disabled notes")
	}
}

// TestParallelDeterminism: a figure sweep through a 4-wide runner emits the
// same CSV, byte for byte (including row order), as the serial path.
func TestParallelDeterminism(t *testing.T) {
	serialOpts := tinyOpts()
	serialOpts.Runner = runner.New(1)
	parOpts := tinyOpts()
	parOpts.Runner = runner.New(4)
	for _, f := range []func(Options) (*Table, error){Fig5, Sensitivity} {
		ts, err := f(serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := f(parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if ts.CSV() != tp.CSV() {
			t.Fatalf("%s: parallel CSV differs from serial:\n--- serial\n%s--- parallel\n%s",
				ts.ID, ts.CSV(), tp.CSV())
		}
	}
}

// TestCheckedSweep: Options.Check runs a figure sweep under the fail-fast
// invariant checker; a healthy simulator completes with identical tables,
// and checked requests bypass the shared run cache — a cache hit would
// return a result without validating the run.
func TestCheckedSweep(t *testing.T) {
	rn := runner.New(2)
	o := tinyOpts()
	o.Benchmarks = []string{"gzip"}
	o.Runner = rn
	want, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	first := rn.Stats().Runs
	o.Check = true
	got, err := Fig3(o)
	if err != nil {
		t.Fatalf("checked sweep failed: %v", err)
	}
	if want.Format() != got.Format() {
		t.Fatalf("checked sweep changed results:\nplain:\n%s\nchecked:\n%s", want.Format(), got.Format())
	}
	st := rn.Stats()
	if st.Runs != 2*first {
		t.Fatalf("checked sweep reused cached runs: %d runs after, %d before (cache hits %d)",
			st.Runs, first, st.CacheHits)
	}
}

// TestSalvagePartialTable: when every run of a sweep times out, the driver
// still returns its table — every measured cell a "-" — alongside the
// *runner.SweepError, so a long sweep's surviving cells are never thrown
// away because some cells crashed.
func TestSalvagePartialTable(t *testing.T) {
	rn := runner.New(1)
	rn.Timeout = time.Millisecond
	o := tinyOpts()
	o.Runner = rn
	tab, err := Fig3(o)
	if err == nil {
		t.Fatal("expected a sweep error")
	}
	var se *runner.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("want *SweepError, got %T: %v", err, err)
	}
	if tab == nil {
		t.Fatal("salvageable failure returned no table")
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Text != "-" {
				t.Fatalf("failed cell rendered data: %+v", row)
			}
		}
	}

	// The registry adapter passes partial tables through with the error.
	tabs, err := Registry()["fig3"](o)
	if err == nil || len(tabs) != 1 {
		t.Fatalf("adapter dropped the partial table: %v, %v", tabs, err)
	}
}

// TestSalvageMixedCells: with a healthy runner the same sweep renders real
// numbers, so the dash rendering above is specifically the failure path.
func TestSalvageMixedCells(t *testing.T) {
	o := tinyOpts()
	tab, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Text == "-" {
				t.Fatalf("healthy sweep rendered a gap: %+v", row)
			}
		}
	}
}
